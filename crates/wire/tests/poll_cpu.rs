//! The poll core never spins. Its thread's CPU time, read from
//! `/proc/self/task/*/schedstat`, stays a small share of wall time while
//! a connection idles and while a peer writes one-way frames every
//! 500 µs. A wait rule that took a tick without movement for movement
//! would hold the short sleep for good and show here.

#![cfg(target_os = "linux")]

use pint_wire::{frame_into, FrameServer, FrameType, MetricsRequest, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The poll thread's name (`comm` keeps 15 bytes).
const THREAD: &str = "pint-spin-pin";

/// Nanoseconds the thread named [`THREAD`] has spent on a CPU.
fn poll_thread_cpu_ns() -> u64 {
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = task.unwrap().path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if comm.trim_end() == THREAD {
            let stat = std::fs::read_to_string(dir.join("schedstat")).unwrap();
            return stat.split_whitespace().next().unwrap().parse().unwrap();
        }
    }
    panic!("no thread named {THREAD}");
}

/// The poll thread's CPU time over wall time while `step` repeats for
/// `wall`.
fn cpu_share(wall: Duration, mut step: impl FnMut()) -> f64 {
    let (cpu, start) = (poll_thread_cpu_ns(), Instant::now());
    while start.elapsed() < wall {
        step();
    }
    (poll_thread_cpu_ns() - cpu) as f64 / start.elapsed().as_nanos() as f64
}

#[test]
fn the_poll_thread_sleeps_while_idle_and_between_paced_frames() {
    let handler = |_: FrameType, _: &[u8], _: &mut Vec<u8>| {};
    let server =
        FrameServer::bind("127.0.0.1:0", THREAD, ServerConfig::default(), handler).expect("bind");
    let mut client = TcpStream::connect(server.local_addr()).unwrap();
    let window = Duration::from_millis(300);

    let idle = cpu_share(window, || std::thread::sleep(Duration::from_millis(10)));
    assert!(idle < 0.05, "idle poll thread used {idle:.3} of wall time");

    let mut frame = Vec::new();
    frame_into(
        FrameType::Hello,
        &MetricsRequest { request_id: 1 },
        &mut frame,
    );
    let paced = cpu_share(window, || {
        std::thread::sleep(Duration::from_micros(500));
        client.write_all(&frame).unwrap();
    });
    assert!(
        paced < 0.5,
        "paced poll thread used {paced:.3} of wall time"
    );
    eprintln!("poll thread CPU share: idle {idle:.4}, paced {paced:.4}");
}
