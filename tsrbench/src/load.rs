//! The load threads: pacing loops (open and closed), the read executor,
//! and what each thread keeps about every op. A timestamp is taken the
//! moment a response is complete; every check on the response happens
//! after it.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use tsr_http::Client;

use crate::schedule::{self, Kind, ReadOp};
use crate::spec::TIMEOUT;

/// One completed (or failed) read.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the read was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When the request left.
    pub sent: Instant,
    /// When the response was complete.
    pub done: Instant,
    /// What was read.
    pub kind: Kind,
    /// The node that was asked.
    pub node: u8,
    /// Whether the read succeeded.
    pub ok: bool,
}

impl Sample {
    /// Latency from the due instant, nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.done.saturating_duration_since(self.due).as_nanos() as u64
    }

    /// How late the request left, nanoseconds.
    pub fn late_ns(&self) -> u64 {
        self.sent.saturating_duration_since(self.due).as_nanos() as u64
    }
}

/// Where reads go.
#[derive(Debug, Clone)]
pub struct Target {
    /// Base URL per node; reads round-robin over them.
    pub bases: Vec<String>,
    /// The tenant.
    pub repo: String,
    /// The names the tenant serves.
    pub names: Vec<String>,
}

/// One load thread's connection state and everything it saw.
pub struct Reader {
    target: Target,
    clients: Vec<Client>,
    etags: Vec<Option<String>>,
    next_node: usize,
    /// Every read, in send order.
    pub samples: Vec<Sample>,
    /// `(node, etag, first seen)` for every index ETag a node returned.
    pub etag_seen: Vec<(u8, String, Instant)>,
    /// The first body received under each index ETag.
    pub index_bodies: BTreeMap<String, Vec<u8>>,
    /// The first body received under each `(package, etag)`; later ones
    /// are compared with it byte for byte.
    pub package_bodies: BTreeMap<(String, String), Vec<u8>>,
    /// Distinct package-page bodies.
    pub page_bodies: BTreeSet<Vec<u8>>,
    /// What went wrong, one line per failed read (capped).
    pub failures: Vec<String>,
}

const FAILURE_LINES: usize = 20;

impl Reader {
    /// A reader with one keep-alive connection per node. `first_node`
    /// staggers the round-robin between threads.
    pub fn new(target: Target, first_node: usize) -> Self {
        let n = target.bases.len();
        Reader {
            clients: (0..n).map(|_| Client::with_keep_alive(TIMEOUT)).collect(),
            etags: vec![None; n],
            next_node: first_node,
            target,
            samples: Vec::new(),
            etag_seen: Vec::new(),
            index_bodies: BTreeMap::new(),
            package_bodies: BTreeMap::new(),
            page_bodies: BTreeSet::new(),
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, line: String) {
        if self.failures.len() < FAILURE_LINES {
            self.failures.push(line);
        }
    }

    /// Sends one read, timed from `due`.
    pub fn exec(&mut self, op: &ReadOp, due: Instant) {
        let node = self.next_node % self.clients.len();
        self.next_node += 1;
        let path = schedule::path(op, &self.target.repo, &self.target.names);
        let url = format!("{}{path}", self.target.bases[node]);
        let cond = match (op.kind, &self.etags[node]) {
            (Kind::IndexCond, Some(tag)) => Some(tag.clone()),
            _ => None,
        };
        let sent = Instant::now();
        let result = match &cond {
            Some(tag) => self.clients[node].request("GET", &url, &[], &[("if-none-match", tag)]),
            None => self.clients[node].get(&url),
        };
        let done = Instant::now();

        let ok = match result {
            Err(e) => {
                self.fail(format!("{path}: {e}"));
                false
            }
            Ok(resp) => {
                let not_modified = resp.status == 304 && cond.is_some();
                if resp.status != 200 && !not_modified {
                    self.fail(format!("{path}: status {}", resp.status));
                    false
                } else if not_modified {
                    true
                } else {
                    let etag = resp.headers.get("etag").cloned().unwrap_or_default();
                    self.accept(op, node, &path, etag, resp.body.into_vec(), done)
                }
            }
        };
        self.samples.push(Sample {
            due,
            sent,
            done,
            kind: op.kind,
            node: node as u8,
            ok,
        });
    }

    /// Files a 200 body for the checks that run after the phases, and
    /// runs the cheap ones now. Returns whether the read counts as ok.
    fn accept(
        &mut self,
        op: &ReadOp,
        node: usize,
        path: &str,
        etag: String,
        body: Vec<u8>,
        done: Instant,
    ) -> bool {
        match op.kind {
            Kind::IndexCond | Kind::IndexGet => {
                if etag.is_empty() {
                    self.fail(format!("{path}: index without an ETag"));
                    return false;
                }
                if self.etags[node].as_deref() != Some(etag.as_str()) {
                    self.etag_seen.push((node as u8, etag.clone(), done));
                    self.etags[node] = Some(etag.clone());
                }
                self.index_bodies.entry(etag).or_insert(body);
                true
            }
            Kind::Package => {
                let n = self.target.names.len().max(1);
                let name = self.target.names[op.pick as usize % n].clone();
                match self.package_bodies.get(&(name.clone(), etag.clone())) {
                    Some(first) if *first != body => {
                        self.fail(format!("{path}: body differs under ETag {etag}"));
                        false
                    }
                    Some(_) => true,
                    None => {
                        self.package_bodies.insert((name, etag), body);
                        true
                    }
                }
            }
            Kind::Page => {
                self.page_bodies.insert(body);
                true
            }
            Kind::Health => true,
        }
    }

    /// Open loop: sends each op at `start + due_us` whether or not the
    /// previous one was slow (one request in flight: a slow reply delays
    /// the sends behind it, and that wait is part of their latency).
    pub fn run_open(&mut self, ops: &[ReadOp], start: Instant) {
        crate::affinity::sleep_exactly();
        self.samples.reserve(ops.len());
        for op in ops {
            let due = start + Duration::from_micros(op.due_us);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            self.exec(op, due);
        }
    }

    /// Closed loop: walks `ops` cyclically, back to back, until `until`.
    pub fn run_closed(&mut self, ops: &[ReadOp], until: Instant) {
        let mut i = 0;
        loop {
            let now = Instant::now();
            if now >= until {
                return;
            }
            self.exec(&ops[i % ops.len()], now);
            i += 1;
        }
    }

    /// Closes the connections; what the reader kept stays readable.
    pub fn disconnect(&mut self) {
        self.clients.clear();
    }

    /// Takes the samples recorded since the last call.
    pub fn take_samples(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.samples)
    }
}
