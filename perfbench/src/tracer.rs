//! Host-time spans recorded from the benchmark's own code, around the
//! calls it makes into each layer.
//!
//! One span per poll of every spawned client and server-core future,
//! and child spans around the layer calls made inside those polls
//! (`Generator::next_op`, the kvstore codec and the server handler).
//! Spans are kept in memory for the whole measured window and written
//! to a file when the run ends.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::io::{self, Write};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

/// What a span covers. Poll spans are top-level; the rest nest inside
/// one poll of a client (`NextOp`, `KvCodec`, `Check`) or server
/// (`KvHandler`) future.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One poll of a client future (layer `core.client`).
    ClientPoll = 0,
    /// One poll of a server-core future (layer `core.reactor`).
    ServerPoll = 1,
    /// `Generator::next_op` (layer `workload`).
    NextOp = 2,
    /// Client-side `KvRequest::encode` / `KvResponse::decode` (layer
    /// `kvstore`).
    KvCodec = 3,
    /// Server handler: request decode, `apply_to_partition`, response
    /// encode (layer `kvstore`).
    KvHandler = 4,
    /// The benchmark's own output and span checks (no layer).
    Check = 5,
}

const KINDS: usize = 6;

/// One finished span: 16 bytes, written verbatim (little-endian) to the
/// span file.
#[derive(Clone, Copy)]
struct Span {
    /// Start, ns since the recorder's epoch.
    start_ns: u64,
    dur_ns: u32,
    kind: Kind,
    /// Index of the spawned future the span belongs to.
    task: u16,
}

/// Span store shared by every wrapped future of one traced run.
pub struct Tracer {
    epoch: Instant,
    recording: Cell<bool>,
    spans: RefCell<Vec<Span>>,
}

/// Per-kind totals over the recorded spans.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Totals {
    count: [u64; KINDS],
    ns: [u64; KINDS],
}

impl Totals {
    pub fn count(&self, k: Kind) -> u64 {
        self.count[k as usize]
    }
    pub fn ns(&self, k: Kind) -> u64 {
        self.ns[k as usize]
    }
}

impl Tracer {
    pub fn new() -> Rc<Self> {
        Rc::new(Tracer {
            epoch: Instant::now(),
            recording: Cell::new(false),
            spans: RefCell::new(Vec::new()),
        })
    }

    /// Starts keeping spans (the measured window begins).
    pub fn start(&self) {
        self.recording.set(true);
    }

    /// Stops keeping spans (the measured window ended).
    pub fn stop(&self) {
        self.recording.set(false);
    }

    fn push(&self, t0: Instant, t1: Instant, kind: Kind, task: u16) {
        if self.recording.get() {
            self.spans.borrow_mut().push(Span {
                start_ns: (t0 - self.epoch).as_nanos() as u64,
                dur_ns: u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX),
                kind,
                task,
            });
        }
    }

    /// Runs `f` inside a child span of kind `kind`.
    pub fn child<T>(&self, kind: Kind, task: u16, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.push(t0, Instant::now(), kind, task);
        out
    }

    /// Wraps `fut` so that each of its polls is one span.
    pub fn wrap(
        self: &Rc<Self>,
        kind: Kind,
        task: u16,
        fut: impl Future<Output = ()> + 'static,
    ) -> impl Future<Output = ()> + 'static {
        Polls {
            fut: Box::pin(fut),
            tracer: Rc::clone(self),
            kind,
            task,
        }
    }

    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for s in self.spans.borrow().iter() {
            t.count[s.kind as usize] += 1;
            t.ns[s.kind as usize] += s.dur_ns as u64;
        }
        t
    }

    /// Writes every kept span as a 16-byte record: start ns (u64), duration
    /// ns (u32), kind (u8), zero (u8), task (u16), all little-endian.
    pub fn write(&self, w: &mut dyn Write) -> io::Result<()> {
        for s in self.spans.borrow().iter() {
            let mut rec = [0u8; 16];
            rec[..8].copy_from_slice(&s.start_ns.to_le_bytes());
            rec[8..12].copy_from_slice(&s.dur_ns.to_le_bytes());
            rec[12] = s.kind as u8;
            rec[14..].copy_from_slice(&s.task.to_le_bytes());
            w.write_all(&rec)?;
        }
        Ok(())
    }
}

struct Polls {
    fut: Pin<Box<dyn Future<Output = ()>>>,
    tracer: Rc<Tracer>,
    kind: Kind,
    task: u16,
}

impl Future for Polls {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let t0 = Instant::now();
        let out = self.fut.as_mut().poll(cx);
        self.tracer.push(t0, Instant::now(), self.kind, self.task);
        out
    }
}
