//! Deterministic ordering test for the two-class handler job queue.
//!
//! With a single worker, a gate request occupies the worker while the
//! test stacks a bulk job and then several serve jobs behind it. When
//! the gate opens, the worker must drain every serve job before touching
//! the bulk one — even though the bulk job was queued first. This is the
//! transport-level fix for the single-core regression where one
//! CPU-bound refresh froze all read traffic for its full duration.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tsr_http::{JobClass, Request, Response, Server, ServerConfig};

/// Sends a GET for `path` on its own connection, on a background thread;
/// the returned handle joins once the response arrived.
fn get_async(addr: String, path: String) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n"
        )
        .expect("write request");
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).expect("status");
        assert!(line.contains("200"), "unexpected status line: {line}");
    })
}

fn wait_for<F: Fn() -> bool>(what: &str, cond: F) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A handler that blocks `/gate` requests (flagging `gate_running`) until
/// `gate_open` flips, and records the completion order of every request.
fn gated_handler(
    gate_running: Arc<AtomicBool>,
    gate_open: Arc<AtomicBool>,
    order: Arc<Mutex<Vec<String>>>,
) -> impl Fn(&mut Request) -> Response + Send + Sync + 'static {
    move |req: &mut Request| {
        if req.path == "/gate" {
            gate_running.store(true, Ordering::SeqCst);
            while !gate_open.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        order.lock().unwrap().push(req.path.clone());
        Response::text(200, "ok")
    }
}

#[test]
fn serve_jobs_overtake_a_queued_bulk_job() {
    let gate_running = Arc::new(AtomicBool::new(false));
    let gate_open = Arc::new(AtomicBool::new(false));
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    // One worker makes ordering observable; classify sends `/bulk` to the
    // bulk lane, everything else to the serve lane.
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        gated_handler(
            Arc::clone(&gate_running),
            Arc::clone(&gate_open),
            Arc::clone(&order),
        ),
        ServerConfig {
            workers: 1,
            classify: Some(Arc::new(|req: &Request| {
                if req.path.starts_with("/bulk") {
                    JobClass::Bulk
                } else {
                    JobClass::Serve
                }
            })),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    // Occupy the single worker with the gate request.
    let gate = get_async(addr.clone(), "/gate".into());
    wait_for("gate handler running", || {
        gate_running.load(Ordering::SeqCst)
    });

    // Queue one bulk job FIRST, then three serve jobs behind it.
    let bulk = get_async(addr.clone(), "/bulk".into());
    wait_for("bulk job queued", || server.queue_depths().1 == 1);
    // One at a time: concurrent connects would arrive in any order, and
    // the assertion below pins the exact one.
    let mut serves = Vec::new();
    for i in 0..3 {
        serves.push(get_async(addr.clone(), format!("/serve/{i}")));
        wait_for("serve job queued", || server.queue_depths().0 == i + 1);
    }

    // Open the gate: the worker must now run serve/0..2 before /bulk.
    gate_open.store(true, Ordering::SeqCst);
    gate.join().unwrap();
    for h in serves {
        h.join().unwrap();
    }
    bulk.join().unwrap();

    let got = order.lock().unwrap().clone();
    assert_eq!(
        got,
        vec!["/gate", "/serve/0", "/serve/1", "/serve/2", "/bulk"],
        "serve-class jobs must drain strictly before the queued bulk job"
    );
    assert_eq!(server.queue_depths(), (0, 0));
    server.shutdown();
}

#[test]
fn default_classify_is_a_single_fifo() {
    // Without a classifier everything is serve-class: plain FIFO order.
    let gate_running = Arc::new(AtomicBool::new(false));
    let gate_open = Arc::new(AtomicBool::new(false));
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    let server = Server::bind_with_config(
        "127.0.0.1:0",
        gated_handler(
            Arc::clone(&gate_running),
            Arc::clone(&gate_open),
            Arc::clone(&order),
        ),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    let gate = get_async(addr.clone(), "/gate".into());
    wait_for("gate handler running", || {
        gate_running.load(Ordering::SeqCst)
    });
    let mut handles = Vec::new();
    for i in 0..3 {
        handles.push(get_async(addr.clone(), format!("/r/{i}")));
        wait_for("job queued", || server.queue_depths().0 == i + 1);
    }
    gate_open.store(true, Ordering::SeqCst);
    gate.join().unwrap();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        order.lock().unwrap().clone(),
        vec!["/gate", "/r/0", "/r/1", "/r/2"]
    );
    server.shutdown();
}
