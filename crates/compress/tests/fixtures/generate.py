#!/usr/bin/env python3
"""Writes the gzip fixtures that `tests/fixtures.rs` decodes.

TSR's own deflate emits only fixed-Huffman and stored blocks, but mirrors
send whatever their compressor chose, which is usually dynamic-Huffman
blocks. These fixtures come from a second implementation, Python's zlib,
so that the dynamic-block path of the inflater is checked against bytes
TSR did not write:

  text-{1,6,9}.gz, binary-{1,6,9}.gz  one gzip member of text.txt or
                                      binary.bin at zlib level 1, 6 or 9;
  multi.gz                            two members (text.txt with an FNAME
                                      header, then binary.bin);
  handmade.gz                         a hand-built dynamic block, "aaaa";
  oversubscribed.gz                   code-length code lengths that
                                      over-subscribe the code space;
  distance-too-far.gz                 a match whose distance reaches before
                                      the start of the output;
  truncated.gz                        text-6.gz cut in half.

Every valid fixture starts with a dynamic block, and zlib itself decodes
each valid fixture and rejects each malformed one; the script checks both
before writing anything. Run it from anywhere:

    python3 crates/compress/tests/fixtures/generate.py
"""

import gzip
import io
import os
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))

WORDS = (
    "package index mirror signature sanitize enclave sealed counter quorum "
    "universe script adduser addgroup install upgrade repository the a of "
    "to and in is for with on by from that this update integrity measure"
).split()


def lcg(seed):
    """A 32-bit linear congruential generator: the fixtures do not depend
    on Python's `random`, whose algorithm may change."""
    state = seed
    while True:
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        yield state >> 8


def text_input():
    rng = lcg(1)
    lines = []
    while sum(len(l) + 1 for l in lines) < 2200:
        n = 4 + next(rng) % 9
        lines.append(" ".join(WORDS[next(rng) % len(WORDS)] for _ in range(n)) + ".")
    return ("\n".join(lines) + "\n").encode()


def binary_input():
    # 16-byte records with a skewed byte distribution: compressible enough
    # for zlib to pick a dynamic block, irregular enough to need one.
    rng = lcg(2)
    out = bytearray()
    while len(out) < 2048:
        kind = next(rng) % 4
        out += bytes([0x7F, 0x45, kind, 0])
        out += (next(rng) % 4096).to_bytes(4, "little")
        out += bytes(min(next(rng) % 64, next(rng) % 64) for _ in range(8))
    return bytes(out)


def gzip_member(data, level):
    c = zlib.compressobj(level, zlib.DEFLATED, 31)
    return c.compress(data) + c.flush()


def gzip_with_name(data, name):
    buf = io.BytesIO()
    with gzip.GzipFile(filename=name, mode="wb", fileobj=buf, mtime=0, compresslevel=9) as f:
        f.write(data)
    return buf.getvalue()


class Bits:
    """An LSB-first bit writer, as DEFLATE packs its fields."""

    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.n = 0

    def bits(self, value, count):
        self.acc |= value << self.n
        self.n += count
        while self.n >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.n -= 8

    def code(self, code, length):
        # Huffman codes go most-significant bit first.
        for i in reversed(range(length)):
            self.bits((code >> i) & 1, 1)

    def finish(self):
        if self.n:
            self.out.append(self.acc & 0xFF)
        return bytes(self.out)


def canonical(lengths):
    """symbol -> (code, length) for the canonical code of `lengths`."""
    codes, code = {}, 0
    for length in range(1, 16):
        for sym, l in enumerate(lengths):
            if l == length:
                codes[sym] = (code, length)
                code += 1
        code <<= 1
    return codes


CLEN_ORDER = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15]
GZIP_HEADER = bytes([0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255])


def handmade(symbols):
    """One final dynamic block over literal 'a', end-of-block and length
    code 257 (a 3-byte match), plus one distance code (distance 1), then
    `symbols` ("a", "match" or "end") encoded with those tables."""
    lit = [0] * 258
    lit[ord("a")], lit[256], lit[257] = 2, 2, 1
    dist = [1]
    clen = [0] * 19
    for sym in (1, 2, 17, 18):
        clen[sym] = 2
    clen_codes = canonical(clen)
    w = Bits()
    w.bits(1, 1)  # BFINAL
    w.bits(2, 2)  # BTYPE = dynamic
    w.bits(len(lit) - 257, 5)
    w.bits(len(dist) - 1, 5)
    hclen = max(i for i, s in enumerate(CLEN_ORDER) if clen[s]) + 1
    w.bits(hclen - 4, 4)
    for s in CLEN_ORDER[:hclen]:
        w.bits(clen[s], 3)
    # Run-length code the 259 lengths: zeros with symbol 18 (11..138).
    lengths, i = lit + dist, 0
    while i < len(lengths):
        run = 0
        while i + run < len(lengths) and lengths[i + run] == 0 and run < 138:
            run += 1
        if run >= 11:
            w.code(*clen_codes[18])
            w.bits(run - 11, 7)
            i += run
        else:
            assert lengths[i] in (1, 2), "the tables need only 0, 1 and 2"
            w.code(*clen_codes[lengths[i]])
            i += 1
    lit_codes, dist_codes = canonical(lit), canonical(dist)
    for s in symbols:
        if s == "a":
            w.code(*lit_codes[ord("a")])
        elif s == "match":
            w.code(*lit_codes[257])  # length 3, no extra bits
            w.code(*dist_codes[0])  # distance 1, no extra bits
        else:
            w.code(*lit_codes[256])
    return w.finish()


def oversubscribed():
    w = Bits()
    w.bits(1, 1)
    w.bits(2, 2)
    w.bits(0, 5)
    w.bits(0, 5)
    w.bits(19 - 4, 4)
    for _ in range(19):
        w.bits(1, 3)  # nineteen 1-bit codes: the space holds two
    return GZIP_HEADER + w.finish() + bytes(16)


def trailer(data):
    return zlib.crc32(data).to_bytes(4, "little") + len(data).to_bytes(4, "little")


def main():
    text, binary = text_input(), binary_input()
    valid = {"text.txt": text, "binary.bin": binary}
    for name, data in (("text", text), ("binary", binary)):
        for level in (1, 6, 9):
            valid[f"{name}-{level}.gz"] = gzip_member(data, level)
    valid["multi.gz"] = gzip_with_name(text, "text.txt") + gzip_member(binary, 1)
    aaaa = b"aaaa"
    valid["handmade.gz"] = GZIP_HEADER + handmade(["a", "match", "end"]) + trailer(aaaa)

    malformed = {
        "oversubscribed.gz": oversubscribed(),
        "distance-too-far.gz": GZIP_HEADER + handmade(["match", "end"]) + trailer(b""),
        "truncated.gz": valid["text-6.gz"][: len(valid["text-6.gz"]) // 2],
    }

    for name, blob in valid.items():
        if not name.endswith(".gz"):
            continue
        member = blob
        while member:
            d = zlib.decompressobj(31)
            d.decompress(member)
            assert d.eof, name
            header = 10 + (member.index(0, 10) + 1 - 10 if member[3] & 8 else 0)
            assert (member[header] >> 1) & 3 == 2, f"{name}: first block is not dynamic"
            member = d.unused_data
        expected = {"multi.gz": text + binary, "handmade.gz": aaaa}.get(name)
        if expected is None:
            expected = text if name.startswith("text") else binary
        assert gzip.decompress(blob) == expected, name
    for name, blob in malformed.items():
        try:
            zlib.decompress(blob, 31)
        except zlib.error:
            continue
        raise AssertionError(f"zlib accepted {name}")

    for name, blob in {**valid, **malformed}.items():
        with open(os.path.join(HERE, name), "wb") as f:
            f.write(blob)


if __name__ == "__main__":
    main()
