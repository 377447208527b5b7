//! The load generators: a closed loop in process and an open loop over
//! one loopback connection.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::adapter::{self, EngineLayers, Failure, NacuConfig, ReplyReader, Server};
use crate::span::{Span, SpanLog, ROOT};
use crate::stats::{cpu_seconds, ns, Tally, Trace, Window};
use crate::workload::Item;

/// What one phase of load measured inside its window.
pub struct Measured {
    pub window: Window,
    pub tally: Tally,
    /// Process user+sys CPU seconds spent inside the window.
    pub cpu_s: f64,
    /// The same, per slice of the window.
    pub slice_cpu_s: Vec<f64>,
    pub engine: EngineLayers,
    /// How late the generator ran, ns per request: on the open loop, send
    /// start after due time; on a closed loop, the time a freed slot waits
    /// for its next submit (there, traced requests only).
    pub late_ns: Vec<u32>,
    /// The generator's own cost of handing one request over, ns: encode
    /// and write on the open loop, building the `Request` on a closed
    /// loop (traced requests only).
    pub send_ns: Vec<u32>,
    pub spans: Vec<Span>,
}

#[derive(Default)]
struct ThreadLoad {
    tally: Tally,
    late_ns: Vec<u32>,
    send_ns: Vec<u32>,
    spans: Vec<Span>,
}

impl Measured {
    fn absorb(&mut self, part: ThreadLoad) {
        self.tally.merge(part.tally);
        self.late_ns.extend(part.late_ns);
        self.send_ns.extend(part.send_ns);
        self.spans.extend(part.spans);
    }

    pub fn cpu_us_per_req(&self) -> f64 {
        self.cpu_s * 1e6 / self.tally.attempted().max(1) as f64
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Samples the engine's counters at both edges of the window, and process
/// CPU at every slice edge, while the load threads run.
fn observe(server: &Server, window: Window) -> Measured {
    sleep_until(window.start);
    let counters = server.counters();
    let cpu: Vec<f64> = (0..=window.slices())
        .map(|s| {
            sleep_until(window.slice_start(s));
            cpu_seconds()
        })
        .collect();
    Measured {
        window,
        tally: Tally::default(),
        cpu_s: cpu[cpu.len() - 1] - cpu[0],
        slice_cpu_s: cpu.windows(2).map(|w| w[1] - w[0]).collect(),
        engine: server.counters().since(&counters),
        late_ns: Vec::new(),
        send_ns: Vec::new(),
        spans: Vec::new(),
    }
}

/// Closed loop: `threads` load threads, each keeping `depth` requests in
/// flight until the window ends, then draining them. A request records
/// spans if the window traces its submit time.
pub fn closed(
    server: &Server,
    items: &[Item],
    (threads, depth): (usize, usize),
    window: Window,
) -> Measured {
    std::thread::scope(|scope| {
        let loads: Vec<_> = (0..threads)
            .map(|t| {
                let client = server.client();
                scope.spawn(move || {
                    let mut load = ThreadLoad::default();
                    let mut log = (window.trace != Trace::Off).then(|| SpanLog::new(window.start));
                    let mut inflight = VecDeque::with_capacity(depth);
                    let mut issued = 0usize;
                    let mut freed_at = None;
                    loop {
                        while inflight.len() < depth && Instant::now() < window.end {
                            let index = (t + issued * threads) % items.len();
                            let req = (issued * threads + t + 1) as u64;
                            issued += 1;
                            let item = &items[index];
                            let built_at = Instant::now();
                            let request = client.request(item.function, &item.codes);
                            let submit_at = Instant::now();
                            let traced = window.traced(submit_at);
                            match client.submit(request) {
                                Ok(pending) => {
                                    inflight.push_back((pending, index, req, submit_at, traced))
                                }
                                Err(failure) => load.tally.record(
                                    &window,
                                    (submit_at, submit_at),
                                    Err(failure),
                                    Duration::ZERO,
                                    traced,
                                ),
                            }
                            let freed = freed_at.take();
                            if let Some(log) = log.as_mut().filter(|_| traced) {
                                log.record("client.build", req, built_at, submit_at);
                                log.record("engine.submit", req, submit_at, Instant::now());
                                load.send_ns.push(ns(submit_at - built_at));
                                if let Some(freed) = freed {
                                    load.late_ns.push(ns(submit_at - freed));
                                }
                            }
                        }
                        let Some((pending, index, req, submit_at, traced)) = inflight.pop_front()
                        else {
                            break;
                        };
                        let wait_at = Instant::now();
                        let outcome = pending.wait();
                        let woke_at = Instant::now();
                        let checked = adapter::check(outcome, &items[index].expect);
                        let done_at = Instant::now();
                        load.tally.record(
                            &window,
                            (done_at, done_at),
                            checked,
                            done_at - submit_at,
                            traced,
                        );
                        freed_at = Some(done_at);
                        if let Some(log) = log.as_mut().filter(|_| traced) {
                            log.record("engine.wait", req, wait_at, woke_at);
                            log.record("bench.verify", req, woke_at, done_at);
                            log.record(ROOT, req, submit_at, done_at);
                        }
                    }
                    load.spans = log.map(SpanLog::finish).unwrap_or_default();
                    load
                })
            })
            .collect();
        let mut measured = observe(server, window);
        for load in loads {
            measured.absorb(load.join().expect("load thread panicked"));
        }
        measured
    })
}

/// Lets the calling thread's sleeps end within microseconds of their
/// deadline; the default 50 µs timer slack would bunch 20 µs-spaced
/// sends into bursts.
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument, which is
    // passed, and changes only the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// When the open loop's frames are due: frame `i` at `origin + i / rate`.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub origin: Instant,
    pub per_second: f64,
}

impl Schedule {
    fn due(&self, i: u64) -> Instant {
        self.origin + Duration::from_secs_f64(i as f64 / self.per_second)
    }
}

/// Open loop: one sender thread emits each frame when it is due,
/// whatever the backlog, and one receiver thread checks the replies.
/// Latency runs from each frame's due time, and a frame records spans if
/// the window traces its due time.
pub fn paced(
    server: &Server,
    config: &NacuConfig,
    items: &[Item],
    schedule: Schedule,
    window: Window,
) -> Measured {
    let (writer, reader) = adapter::connect(server.addr());
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || send_loop(writer, config, items, schedule, window));
        let receiver = scope.spawn(move || receive_loop(reader, items, schedule, window));
        let mut measured = observe(server, window);
        let (sent, sent_part) = sender.join().expect("sender panicked");
        measured.absorb(sent_part);
        measured.absorb(receiver.join().expect("receiver panicked"));
        // Frames due inside the window that never got a reply.
        let in_window = (0..sent)
            .filter(|&i| window.contains(schedule.due(i)))
            .count() as u64;
        for _ in measured.tally.attempted()..in_window {
            measured.tally.fail(Failure::Errored);
        }
        measured
    })
}

fn send_loop(
    mut writer: TcpStream,
    config: &NacuConfig,
    items: &[Item],
    schedule: Schedule,
    window: Window,
) -> (u64, ThreadLoad) {
    tighten_timer_slack();
    let mut load = ThreadLoad::default();
    let mut log = (window.trace != Trace::Off).then(|| SpanLog::new(window.start));
    let mut sent = 0u64;
    loop {
        let due_at = schedule.due(sent);
        if due_at >= window.end {
            break;
        }
        sleep_until(due_at);
        let send_at = Instant::now();
        let item = &items[sent as usize % items.len()];
        let frame = adapter::encode(item.function, config, sent, &item.codes);
        if adapter::send(&mut writer, &frame).is_err() {
            break;
        }
        let sent_at = Instant::now();
        if window.contains(due_at) {
            load.late_ns.push(ns(send_at - due_at));
            if let Some(log) = log.as_mut().filter(|_| window.traced(due_at)) {
                log.record("client.send", sent, send_at, sent_at);
                load.send_ns.push(ns(sent_at - send_at));
            }
        }
        sent += 1;
    }
    // The server answers what it has, then closes the connection.
    let _ = writer.shutdown(std::net::Shutdown::Write);
    load.spans = log.map(SpanLog::finish).unwrap_or_default();
    (sent, load)
}

fn receive_loop(
    mut reader: ReplyReader,
    items: &[Item],
    schedule: Schedule,
    window: Window,
) -> ThreadLoad {
    let mut load = ThreadLoad::default();
    let mut log = (window.trace != Trace::Off).then(|| SpanLog::new(window.start));
    loop {
        let read_at = Instant::now();
        if !matches!(reader.read(), Ok(true)) {
            break;
        }
        let decode_at = Instant::now();
        let Some(reply) = reader.decode() else {
            break;
        };
        let decoded_at = Instant::now();
        let id = reply.id;
        let due_at = schedule.due(id);
        let checked = reply.check(&items[id as usize % items.len()].expect);
        let done_at = Instant::now();
        let traced = window.traced(due_at);
        load.tally.record(
            &window,
            (due_at, done_at),
            checked,
            done_at - due_at,
            traced,
        );
        if let Some(log) = log.as_mut().filter(|_| traced) {
            log.record("client.read", id, read_at, decode_at);
            log.record("client.decode", id, decode_at, decoded_at);
            log.record("bench.verify", id, decoded_at, done_at);
            log.record(ROOT, id, due_at, done_at);
        }
    }
    load.spans = log.map(SpanLog::finish).unwrap_or_default();
    load
}
