//! The client endpoint: remote fetching, hybrid mode switching, stats.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_rnic::{Qp, ThreadCtx, VerbError};
use rfp_simnet::{
    derive_seed, retry_with_deadline, timeout, ConnHealth, Counter, Gauge, Histogram, RequestTrace,
    RetryPolicy, Severity, SimSpan, SimTime,
};

use crate::conn::{Mode, RfpTelemetry, Shared, MODE_REMOTE_FETCH, MODE_SERVER_REPLY};
use crate::header::{
    ReqHeader, RespHeader, RespStatus, REQ_HDR_TENANT, RESP_HDR, RESP_HDR_EXT, RESP_TRAILER,
};
use crate::integrity::{verify_response, IntegrityFault};
use crate::overload::{rejected_call, OverloadConfig};
use crate::recovery::{FailureCause, RecoveryConfig, RpcError};

#[cfg(test)]
mod oracle;

/// Registry-backed instruments of one connection, created when the
/// config carries an [`RfpTelemetry`].
struct Instruments {
    telemetry: RfpTelemetry,
    calls: Rc<Counter>,
    /// Failed remote-fetch attempts (READs that found no valid header).
    retries: Rc<Counter>,
    extra_reads: Rc<Counter>,
    fallback_fetches: Rc<Counter>,
    switches_to_reply: Rc<Counter>,
    switches_to_fetch: Rc<Counter>,
    /// Bytes moved by remote-fetch READs (tracks the effective `F`).
    fetch_bytes: Rc<Counter>,
    latency: Rc<Histogram>,
    /// 0 = remote fetch, 1 = server reply.
    mode: Rc<Gauge>,
}

impl Instruments {
    fn new(telemetry: RfpTelemetry, initial_mode: Mode) -> Self {
        let reg = &telemetry.registry;
        let p = telemetry.prefix.clone();
        let this = Instruments {
            calls: reg.counter(&format!("{p}.calls")),
            retries: reg.counter(&format!("{p}.retries")),
            extra_reads: reg.counter(&format!("{p}.extra_reads")),
            fallback_fetches: reg.counter(&format!("{p}.fallback_fetches")),
            switches_to_reply: reg.counter(&format!("{p}.switches.to_reply")),
            switches_to_fetch: reg.counter(&format!("{p}.switches.to_fetch")),
            fetch_bytes: reg.counter(&format!("{p}.fetch.bytes")),
            latency: reg.histogram(&format!("{p}.latency")),
            mode: reg.gauge(&format!("{p}.mode")),
            telemetry,
        };
        this.mode.set(mode_level(initial_mode));
        this
    }
}

fn mode_level(mode: Mode) -> i64 {
    match mode {
        Mode::RemoteFetch => 0,
        Mode::ServerReply => 1,
    }
}

/// Outcome of one RPC call.
#[derive(Clone, Debug)]
pub struct CallResult {
    /// The response payload.
    pub data: Vec<u8>,
    /// Per-call diagnostics.
    pub info: CallInfo,
}

/// Per-call diagnostics (feeds Table 3 and the round-trip accounting of
/// §4.3).
#[derive(Copy, Clone, Debug)]
pub struct CallInfo {
    /// Remote-fetch attempts made for this call (the paper's `N`);
    /// zero when the call was served in server-reply mode without any
    /// fetch.
    pub attempts: u32,
    /// Whether a second READ was needed because the response exceeded
    /// the fetch size `F`.
    pub extra_read: bool,
    /// Mode the call completed in.
    pub completed_in: Mode,
    /// End-to-end call latency.
    pub latency: SimSpan,
    /// Server-reported process time (the response header's 16-bit
    /// `time` field, µs) — the online tuner's `P` sample.
    pub server_time_us: u16,
    /// The server's verdict on this call. Always [`RespStatus::Ok`]
    /// outside the overload-control path; [`RespStatus::Busy`] /
    /// [`RespStatus::Shed`] mark rejected calls, whose `data` is empty.
    pub status: RespStatus,
    /// Fetches of this call discarded and retried because they failed
    /// integrity verification (torn DMA, bit flips). Always 0 with the
    /// integrity layer off.
    pub integrity_retries: u32,
}

/// Aggregated client statistics.
#[derive(Default)]
pub struct ClientStats {
    calls: Cell<u64>,
    fetch_attempts: Cell<u64>,
    extra_reads: Cell<u64>,
    switches_to_reply: Cell<u64>,
    switches_to_fetch: Cell<u64>,
    attempts_hist: RefCell<BTreeMap<u32, u64>>,
    /// Doorbell rings paid by the pipelined driver's batched fetch
    /// rounds (each covers ≥ 2 READs).
    doorbells: Cell<u64>,
    /// Fetch READs issued inside doorbell batches.
    doorbell_reads: Cell<u64>,
    /// Pipelined fetch READs issued individually (paying their own
    /// doorbell, like the sequential path).
    single_reads: Cell<u64>,
    /// End-to-end call latencies.
    pub latency: Histogram,
}

impl ClientStats {
    fn record(&self, info: &CallInfo) {
        self.calls.set(self.calls.get() + 1);
        self.fetch_attempts
            .set(self.fetch_attempts.get() + info.attempts as u64);
        if info.extra_read {
            self.extra_reads.set(self.extra_reads.get() + 1);
        }
        *self
            .attempts_hist
            .borrow_mut()
            .entry(info.attempts)
            .or_insert(0) += 1;
        self.latency.record(info.latency);
    }

    /// Completed calls.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean remote-fetch attempts per call.
    pub fn mean_attempts(&self) -> f64 {
        if self.calls.get() == 0 {
            return 0.0;
        }
        self.fetch_attempts.get() as f64 / self.calls.get() as f64
    }

    /// Calls that needed a second READ for an oversized response.
    pub fn extra_reads(&self) -> u64 {
        self.extra_reads.get()
    }

    /// Fraction of calls with more than `n` fetch attempts.
    pub fn frac_attempts_above(&self, n: u32) -> f64 {
        if self.calls.get() == 0 {
            return 0.0;
        }
        let above: u64 = self
            .attempts_hist
            .borrow()
            .iter()
            .filter(|(&a, _)| a > n)
            .map(|(_, &c)| c)
            .sum();
        above as f64 / self.calls.get() as f64
    }

    /// Largest attempt count observed (the paper's "largest N").
    pub fn max_attempts(&self) -> u32 {
        self.attempts_hist
            .borrow()
            .keys()
            .next_back()
            .copied()
            .unwrap_or(0)
    }

    /// Histogram of attempts → call count.
    pub fn attempts_histogram(&self) -> BTreeMap<u32, u64> {
        self.attempts_hist.borrow().clone()
    }

    /// Times the connection switched into server-reply mode.
    pub fn switches_to_reply(&self) -> u64 {
        self.switches_to_reply.get()
    }

    /// Times the connection switched back to remote fetching.
    pub fn switches_to_fetch(&self) -> u64 {
        self.switches_to_fetch.get()
    }

    /// Doorbell rings paid for batched fetch rounds (pipelined driver).
    pub fn doorbells(&self) -> u64 {
        self.doorbells.get()
    }

    /// Fetch READs that rode a shared doorbell (pipelined driver).
    pub fn doorbell_reads(&self) -> u64 {
        self.doorbell_reads.get()
    }

    /// Pipelined fetch READs that paid their own doorbell.
    pub fn single_reads(&self) -> u64 {
        self.single_reads.get()
    }

    /// Clears all statistics (discard warm-up).
    pub fn reset(&self) {
        self.calls.set(0);
        self.fetch_attempts.set(0);
        self.extra_reads.set(0);
        self.switches_to_reply.set(0);
        self.switches_to_fetch.set(0);
        self.doorbells.set(0);
        self.doorbell_reads.set(0);
        self.single_reads.set(0);
        self.attempts_hist.borrow_mut().clear();
        self.latency.reset();
    }
}

/// A factory minting a fresh QP to the server, used to re-establish an
/// errored one (see [`RfpClient::set_reconnect`]).
pub type QpFactory = Box<dyn Fn() -> Rc<Qp>>;

/// Panic messages of the engines that run without a recovery path, as
/// the infallible [`Qp`] verbs word them.
const WRITE_FAILED: &str = "WRITE failed on a QP with no recovery path";
const READ_FAILED: &str = "READ failed on a QP with no recovery path";

/// One staged call: its request sits in ring `slot` under `seq`. Every
/// entry point drives its calls through the same four steps —
/// [`stage`](RfpClient::stage), [`deposit`](RfpClient::deposit),
/// [`poll`](RfpClient::poll) and [`book`](RfpClient::book) — and keeps
/// only the loop that is its policy. A flight abandoned mid-race (a
/// losing hedge leg) is harmless: the next call on its connection
/// allocates a fresh seq, so a late response to the abandoned one fails
/// the acceptance check and is never surfaced.
#[derive(Copy, Clone)]
pub(crate) struct Flight {
    slot: usize,
    seq: u32,
    /// Staged request bytes on the wire (header + payload).
    wire_len: usize,
    /// When the call was staged (latency epoch).
    t0: SimTime,
    /// Whether the call opened a request span. Untraced flights
    /// (recovered calls and hedge legs) mark no span milestones and do
    /// not bump the `extra_reads` instrument.
    traced: bool,
    /// The request WRITE has deposited.
    deposited: bool,
    /// Fetch READs that sampled the slot (the paper's `N`).
    pub(crate) attempts: u32,
    /// Fetches discarded by integrity verification.
    pub(crate) integrity_retries: u32,
    /// Whether any poll needed the remainder READ.
    extra_read: bool,
    /// Whether this call already counted toward the consecutive-overrun
    /// guard (at most once per call).
    counted_over: bool,
}

impl Flight {
    /// Carries `prev`'s counters into this flight, so a call spread over
    /// several flights (resubmissions under fresh seqs, hedge legs)
    /// counts as one call.
    pub(crate) fn carry(mut self, prev: Option<Flight>) -> Flight {
        if let Some(prev) = prev {
            self.attempts += prev.attempts;
            self.integrity_retries += prev.integrity_retries;
            self.extra_read |= prev.extra_read;
        }
        self
    }
}

/// What one [`poll`](RfpClient::poll) found in a flight's landing zone.
pub(crate) enum Polled {
    /// No response for this flight yet (poll again).
    Miss,
    /// A matching response failed integrity verification; the fetched
    /// image was discarded (poll again).
    Corrupt,
    /// The response landed and verified.
    Landed(RespStatus, CallResult),
}

/// Client endpoint of one RFP connection, bound to one simulated thread.
///
/// The paper's Table 2 API maps onto the two connection endpoints:
///
/// | Table 2 | Here |
/// |---|---|
/// | `client_send` | [`RfpClient::send`] |
/// | `client_recv` | [`RfpClient::recv`] |
/// | `server_recv` | [`RfpServerConn::try_recv`](crate::RfpServerConn::try_recv) |
/// | `server_send` | [`RfpServerConn::send`](crate::RfpServerConn::send) |
/// | `malloc_buf` / `free_buf` | the registered regions [`connect`](crate::connect) allocates |
///
/// On top of Table 2 the client adds the [`call`](RfpClient::call)
/// wrapper, the hybrid remote-fetch ↔ server-reply switch, the
/// two-segment fetch, and the pipelined, overload-aware and recovering
/// call engines.
pub struct RfpClient {
    shared: Rc<Shared>,
    qp: RefCell<Rc<Qp>>,
    /// Factory minting a fresh QP to the server, installed by fault-
    /// tolerant deployments; used to re-establish an errored QP.
    reconnect: RefCell<Option<QpFactory>>,
    /// Last allocated sequence number (mirrors the winning slot counter;
    /// drives the sequential paths and trace/diagnostic text).
    seq: Cell<u32>,
    /// Per-ring-slot sequence counters: slot `s` carries seqs
    /// `s+1, s+1+W, s+1+2W, …` so `seq ≡ slot+1 (mod W)` always holds
    /// (see [`slot_of`](crate::header::slot_of)). With `W = 1` this
    /// degenerates to the single `+1` counter.
    slot_seq: Vec<Cell<u32>>,
    /// Round-robin slot cursor for the sequential (one-at-a-time) paths.
    next_slot: Cell<usize>,
    /// The flight of the last [`send`](RfpClient::send), awaiting its
    /// [`recv`](RfpClient::recv).
    sent: Cell<Option<Flight>>,
    mode: Cell<Mode>,
    /// Consecutive calls whose failed retries exceeded `R`.
    consec_over: Cell<u32>,
    /// Runtime-tunable `R` (initialised from config).
    retry_threshold: Cell<u32>,
    /// Runtime-tunable `F` (initialised from config).
    fetch_size: Cell<usize>,
    /// Last credit level the server advertised to this connection
    /// (overload control; starts at the configured maximum).
    credits: Cell<u16>,
    stats: ClientStats,
    instruments: Option<Instruments>,
    /// This connection's rolling health window, when the config carries
    /// a [`HealthHub`](rfp_simnet::HealthHub).
    health: Option<Rc<ConnHealth>>,
    /// Id of the most recent flight-recorder event of the *current*
    /// call — the cause link of the next one, so a call's events chain
    /// (deadline → resubmit → reconnect). Reset at call entry.
    last_flight: Cell<Option<u64>>,
    /// Tenant id stamped into every request header while set (the mux
    /// layer re-stamps it on each lease handoff). `None` — the default
    /// everywhere outside a mux — keeps requests byte-identical to the
    /// untenanted layout.
    tenant: Cell<Option<u32>>,
    /// Highest replication epoch this client has observed. Stamped into
    /// every request header and compared against every response: a
    /// response from an older epoch (a deposed ex-primary) is ignored
    /// like a non-matching poll, and a response carrying a newer epoch
    /// moves the client forward. 0 — the default outside replicated
    /// deployments — keeps the wire bytes legacy-identical.
    epoch: Cell<u16>,
}

impl RfpClient {
    pub(crate) fn new(shared: Rc<Shared>, qp: Rc<Qp>) -> Self {
        let retry_threshold = Cell::new(shared.cfg.retry_threshold);
        let fetch_size = Cell::new(shared.cfg.fetch_size);
        let initial_mode = shared.cfg.initial_mode;
        let instruments = shared
            .cfg
            .telemetry
            .clone()
            .map(|t| Instruments::new(t, initial_mode));
        let credits = Cell::new(shared.cfg.overload.credit_max);
        let window = shared.cfg.window;
        let health = shared
            .cfg
            .health
            .as_ref()
            .map(|h| h.conn(shared.cfg.conn_id));
        RfpClient {
            shared,
            qp: RefCell::new(qp),
            reconnect: RefCell::new(None),
            seq: Cell::new(0),
            // Slot `s` starts one allocation (`+W`) short of `s + 1`.
            slot_seq: (0..window)
                .map(|s| Cell::new((s as u32 + 1).wrapping_sub(window as u32)))
                .collect(),
            next_slot: Cell::new(0),
            sent: Cell::new(None),
            mode: Cell::new(initial_mode),
            consec_over: Cell::new(0),
            retry_threshold,
            fetch_size,
            credits,
            stats: ClientStats::default(),
            instruments,
            health,
            last_flight: Cell::new(None),
            tenant: Cell::new(None),
            epoch: Cell::new(0),
        }
    }

    /// Sets the replication epoch stamped into subsequent requests
    /// (failover layers seed it; the client also adopts newer epochs
    /// from responses on its own).
    pub fn set_epoch(&self, epoch: u16) {
        self.epoch.set(epoch);
    }

    /// Highest replication epoch observed so far (0 when replication
    /// is off).
    pub fn known_epoch(&self) -> u16 {
        self.epoch.get()
    }

    /// Whether `hdr` answers `seq` in the current (or a newer) epoch.
    ///
    /// A valid match carrying a **newer** epoch is accepted and adopted
    /// — that is how a client learns of a completed failover (including
    /// from a `Fenced` verdict). A match carrying an **older** epoch is
    /// a deposed ex-primary still answering into the landing zone; it
    /// is treated exactly like a non-matching poll, so the call keeps
    /// fetching and the recovery layer eventually fails over instead of
    /// surfacing a stale read.
    fn accept_resp(&self, hdr: &RespHeader, seq: u32) -> bool {
        hdr.valid && hdr.seq == seq && hdr.epoch >= self.epoch.get()
    }

    /// Books an accepted (seq-matching, integrity-verified) response's
    /// header fields: the advertised credit level, and — on an explicit
    /// `Fenced` verdict only — any newer replication epoch it carries.
    /// Restricting adoption to fences keeps corruption from poisoning
    /// the epoch: the payload CRC does not cover the header's epoch
    /// bytes, but a single bit flip cannot turn status 0 (`Ok`) into 3
    /// (`Fenced`), so a flipped epoch on an ordinary response is simply
    /// ignored.
    fn note_accepted(&self, hdr: &RespHeader) {
        self.credits.set(hdr.credits);
        if hdr.status == RespStatus::Fenced && hdr.epoch > self.epoch.get() {
            self.epoch.set(hdr.epoch);
        }
    }

    /// Stamps (or clears) the tenant id carried by every subsequent
    /// request on this connection. A multiplexing layer sets it when a
    /// lease moves the connection to a different logical client.
    pub fn set_tenant(&self, tenant: Option<u32>) {
        self.tenant.set(tenant);
    }

    /// Tenant id currently stamped into requests, if any.
    pub fn tenant(&self) -> Option<u32> {
        self.tenant.get()
    }

    /// Payload headroom of one ring slot for the next request, given
    /// the tenant stamp and whether a deadline rides along.
    fn req_headroom(&self, deadline: bool) -> usize {
        if self.tenant.get().is_some() {
            self.shared.cfg.req_capacity - REQ_HDR_TENANT
        } else if deadline {
            self.shared.cfg.max_req_payload_with_deadline()
        } else {
            self.shared.cfg.max_req_payload()
        }
    }

    /// Appends a flight-recorder event tagged with this connection and
    /// `seq`, chained onto the current call's previous event, and
    /// remembers it as the next link's cause. Pure bookkeeping: no
    /// simulated time, no wire bytes — a `None` recorder run is
    /// event-identical to one with recording on.
    fn flight(&self, thread: &ThreadCtx, severity: Severity, kind: &'static str, detail: String) {
        if let Some(rec) = &self.shared.cfg.recorder {
            let id = rec.record_caused(
                thread.now(),
                Some(self.shared.cfg.conn_id),
                self.seq.get() as u64,
                severity,
                kind,
                detail,
                self.last_flight.get(),
            );
            self.last_flight.set(Some(id));
        }
    }

    /// The QP currently carrying this connection's verbs.
    pub(crate) fn qp(&self) -> Rc<Qp> {
        Rc::clone(&self.qp.borrow())
    }

    /// Allocates the next sequence number of ring `slot` (counters of
    /// one slot advance by `W`, preserving `seq ≡ slot+1 (mod W)`).
    fn alloc_seq_in(&self, slot: usize) -> u32 {
        let w = self.shared.cfg.window as u32;
        let seq = self.slot_seq[slot].get().wrapping_add(w);
        self.slot_seq[slot].set(seq);
        self.seq.set(seq);
        seq
    }

    /// Takes the sequential paths' next ring slot (a rotating cursor;
    /// always slot 0 with `W = 1`).
    fn take_slot(&self) -> usize {
        let slot = self.next_slot.get();
        self.next_slot.set((slot + 1) % self.shared.cfg.window);
        slot
    }

    /// The sequence number the next sequential allocation will return,
    /// without allocating (jitter-seed derivation).
    fn peek_next_seq(&self) -> u32 {
        self.slot_seq[self.next_slot.get()]
            .get()
            .wrapping_add(self.shared.cfg.window as u32)
    }

    /// Decodes the response header currently in `slot`'s landing zone,
    /// through a stack buffer (the fetch hot path allocates nothing).
    fn resp_hdr_at(&self, slot: usize) -> RespHeader {
        let mut buf = [0u8; RESP_HDR_EXT];
        let n = self.shared.cfg.resp_wire_hdr();
        self.shared
            .client_resp
            .read_local_into(self.shared.resp_off(slot), &mut buf[..n]);
        RespHeader::decode(&buf[..n])
    }

    /// Installs the QP factory used to re-establish the connection after
    /// a QP error (see [`RecoveryConfig`]). Without one, recovery keeps
    /// retrying on the original QP and a QP-error fault is fatal to the
    /// call.
    pub fn set_reconnect(&self, factory: impl Fn() -> Rc<Qp> + 'static) {
        *self.reconnect.borrow_mut() = Some(Box::new(factory));
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Current transport mode.
    pub fn mode(&self) -> Mode {
        self.mode.get()
    }

    /// Current `R`.
    pub fn retry_threshold(&self) -> u32 {
        self.retry_threshold.get()
    }

    /// Current `F`.
    pub fn fetch_size(&self) -> usize {
        self.fetch_size.get()
    }

    /// Largest `F` this connection's buffers can carry.
    pub fn max_fetch_size(&self) -> usize {
        self.shared.cfg.resp_capacity
    }

    /// Applies new `(R, F)` parameters (output of the selection
    /// procedure, [`crate::ParamSelector`]).
    ///
    /// # Panics
    ///
    /// Panics if `f` cannot cover the response header.
    pub fn set_params(&self, r: u32, f: usize) {
        assert!(
            f >= self.shared.cfg.resp_wire_hdr(),
            "F must cover the response header"
        );
        assert!(
            f <= self.shared.cfg.resp_capacity,
            "F exceeds response buffer"
        );
        self.retry_threshold.set(r);
        self.fetch_size.set(f);
    }

    /// Stages `req` into ring `slot` under the slot's next seq: encodes
    /// the request header (with `deadline` stamped, when given) and
    /// copies header and payload into the local ring slot. A `traced`
    /// call also opens its request span.
    ///
    /// # Panics
    ///
    /// Panics if `req` exceeds the slot's payload headroom.
    fn stage(
        &self,
        thread: &ThreadCtx,
        slot: usize,
        req: &[u8],
        deadline: Option<SimTime>,
        traced: bool,
    ) -> Flight {
        let max = self.req_headroom(deadline.is_some());
        assert!(req.len() <= max, "request exceeds buffer capacity");
        let seq = self.alloc_seq_in(slot);
        if let (true, Some(ins)) = (traced, &self.instruments) {
            *self.shared.span_mut(slot) = Some(RequestTrace::begin(
                seq as u64,
                ins.telemetry.track,
                thread.now(),
                "issue",
            ));
        }
        let hdr = ReqHeader {
            valid: true,
            size: req.len() as u32,
            seq,
            deadline,
            tenant: self.tenant.get(),
            epoch: self.epoch.get(),
        };
        let hdr_len = hdr.wire_len();
        let mut hdr_bytes = [0u8; REQ_HDR_TENANT];
        hdr.encode(&mut hdr_bytes[..hdr_len]);
        let base = self.shared.req_off(slot);
        self.shared
            .client_req
            .write_local(base, &hdr_bytes[..hdr_len]);
        self.shared.client_req.write_local(base + hdr_len, req);
        Flight {
            slot,
            seq,
            wire_len: hdr_len + req.len(),
            t0: thread.now(),
            traced,
            deposited: false,
            attempts: 0,
            integrity_retries: 0,
            extra_read: false,
            counted_over: false,
        }
    }

    /// Deposits a staged flight's request into server memory with one
    /// WRITE.
    async fn deposit(&self, thread: &ThreadCtx, fl: &mut Flight) -> Result<(), VerbError> {
        let base = self.shared.req_off(fl.slot);
        self.qp()
            .try_write(
                thread,
                &self.shared.client_req,
                base,
                &self.shared.req,
                base,
                fl.wire_len,
            )
            .await?;
        self.note_deposited(thread, fl);
        Ok(())
    }

    /// Books a flight's completed request WRITE.
    fn note_deposited(&self, thread: &ThreadCtx, fl: &mut Flight) {
        fl.deposited = true;
        if fl.traced {
            self.span_mark(thread, fl.slot, "request_written");
        }
    }

    /// One fetch READ of `F` bytes from the flight's landing zone, then
    /// the landed-response check. `Err` is the verb error of either READ.
    pub(crate) async fn poll(
        &self,
        thread: &ThreadCtx,
        fl: &mut Flight,
    ) -> Result<Polled, VerbError> {
        let f = self.fetch_size.get();
        let base = self.shared.resp_off(fl.slot);
        self.qp()
            .try_read(
                thread,
                &self.shared.client_resp,
                base,
                &self.shared.resp,
                base,
                f,
            )
            .await?;
        self.note_fetched(thread, fl, f);
        self.check(thread, fl, f).await
    }

    /// Books one fetch READ of `f` bytes that sampled the flight's slot.
    fn note_fetched(&self, thread: &ThreadCtx, fl: &mut Flight, f: usize) {
        fl.attempts += 1;
        if fl.traced {
            self.span_mark(thread, fl.slot, "fetch_read");
        }
        if let Some(ins) = &self.instruments {
            ins.fetch_bytes.add(f as u64);
        }
    }

    /// The landed-response check over a landing zone holding the first
    /// `fetched` bytes of the response image: seq/epoch acceptance,
    /// length plausibility, the remainder READ (paper §3.2: only if the
    /// real result exceeds what was fetched), integrity verification,
    /// and the accepted header's credit/epoch bookkeeping. A corrupt
    /// image is noted and counted on the flight; the next READ samples
    /// the buffer afresh.
    async fn check(
        &self,
        thread: &ThreadCtx,
        fl: &mut Flight,
        fetched: usize,
    ) -> Result<Polled, VerbError> {
        thread.busy(self.shared.cfg.check_cpu).await;
        let hdr = self.resp_hdr_at(fl.slot);
        if !self.accept_resp(&hdr, fl.seq) {
            return Ok(Polled::Miss);
        }
        let total = self.resp_total_len(&hdr);
        if !self.resp_len_plausible(total) {
            self.note_integrity_failure(thread, IntegrityFault::Torn);
            fl.integrity_retries += 1;
            return Ok(Polled::Corrupt);
        }
        let base = self.shared.resp_off(fl.slot);
        let mut extra_read = false;
        if total > fetched {
            let rest = total - fetched;
            self.qp()
                .try_read(
                    thread,
                    &self.shared.client_resp,
                    base + fetched,
                    &self.shared.resp,
                    base + fetched,
                    rest,
                )
                .await?;
            if fl.traced {
                self.span_mark(thread, fl.slot, "extra_fetch_read");
            }
            if let Some(ins) = &self.instruments {
                ins.fetch_bytes.add(rest as u64);
            }
            extra_read = true;
            fl.extra_read = true;
        }
        if self.verify_fetched(thread, fl.slot, &hdr).is_err() {
            fl.integrity_retries += 1;
            return Ok(Polled::Corrupt);
        }
        self.note_accepted(&hdr);
        let data = self
            .shared
            .client_resp
            .read_local(base + hdr.wire_len(), hdr.size as usize);
        Ok(Polled::Landed(
            hdr.status,
            CallResult {
                data,
                info: CallInfo {
                    attempts: fl.attempts,
                    extra_read,
                    completed_in: Mode::RemoteFetch,
                    latency: thread.now() - fl.t0,
                    server_time_us: hdr.time_us,
                    status: hdr.status,
                    integrity_retries: fl.integrity_retries,
                },
            },
        ))
    }

    /// Books one finished call. An `executed` call feeds the stats, the
    /// health window and the instruments (an overload give-up feeds
    /// none of them). `span` names the slot whose request span the call
    /// closes; `None` for untraced calls, which also leave the
    /// `extra_reads` instrument alone.
    pub(crate) fn book(
        &self,
        thread: &ThreadCtx,
        out: &CallResult,
        executed: bool,
        span: Option<usize>,
    ) {
        if executed {
            self.stats.record(&out.info);
            // Every attempt but a successful final fetch was a retry.
            let successes = match out.info.completed_in {
                Mode::RemoteFetch => 1,
                Mode::ServerReply => 0,
            };
            let retries = out.info.attempts.saturating_sub(successes) as u64;
            if let Some(h) = &self.health {
                h.record_call(
                    thread.now(),
                    out.info.latency,
                    retries,
                    out.data.len(),
                    out.info.server_time_us,
                );
            }
            if let Some(ins) = &self.instruments {
                ins.calls.incr();
                ins.latency.record(out.info.latency);
                ins.retries.add(retries);
                if span.is_some() && out.info.extra_read {
                    ins.extra_reads.incr();
                }
            }
        }
        if let (Some(slot), Some(ins)) = (span, &self.instruments) {
            if let Some(mut trace) = self.shared.span_mut(slot).take() {
                let label = if executed { "completed" } else { "gave_up" };
                trace.mark_unordered(thread.now(), label);
                ins.telemetry.spans.record(trace);
            }
        }
    }

    /// `client_send`: deposits a request into server memory via
    /// one-sided WRITE.
    ///
    /// # Panics
    ///
    /// Panics if `req` exceeds the request capacity.
    pub async fn send(&self, thread: &ThreadCtx, req: &[u8]) {
        self.send_with_deadline(thread, req, None).await
    }

    /// [`send`](RfpClient::send) with an absolute deadline stamped into
    /// the (extended) request header, for servers running admission
    /// control. Without a deadline the wire bytes are identical to the
    /// legacy 8-byte header.
    pub async fn send_with_deadline(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        deadline: Option<SimTime>,
    ) {
        let mut fl = self.stage(thread, self.take_slot(), req, deadline, true);
        self.deposit(thread, &mut fl).await.expect(WRITE_FAILED);
        self.sent.set(Some(fl));
    }

    /// `client_recv`: obtains the response for the last
    /// [`send`](RfpClient::send), via repeated remote fetching or
    /// server-reply depending on the connection mode.
    ///
    /// The reported latency spans from the matching `send` (end-to-end
    /// call time).
    ///
    /// # Panics
    ///
    /// Panics if no `send` is awaiting its response.
    pub async fn recv(&self, thread: &ThreadCtx) -> CallResult {
        let mut fl = self.sent.take().expect("recv follows a send");
        let out = match self.mode.get() {
            Mode::RemoteFetch => self.recv_fetching(thread, &mut fl).await,
            Mode::ServerReply => self.recv_replied(thread, &mut fl).await,
        };
        self.book(thread, &out, true, Some(fl.slot));
        out
    }

    /// Adds a milestone to `slot`'s in-flight span, if one exists.
    fn span_mark(&self, thread: &ThreadCtx, slot: usize, label: &'static str) {
        if let Some(span) = self.shared.span_mut(slot).as_mut() {
            span.mark_unordered(thread.now(), label);
        }
    }

    /// One full RPC: send, then receive.
    pub async fn call(&self, thread: &ThreadCtx, req: &[u8]) -> CallResult {
        self.send(thread, req).await;
        self.recv(thread).await
    }

    /// Pipelined multi-call driver: runs every request in `reqs` on this
    /// connection, keeping up to `W` (the configured
    /// [`window`](crate::RfpConfig::window)) calls outstanding in the
    /// ring and polling all of their fetches with **one doorbell ring
    /// per round** ([`Qp::post_read_batch`]) — the client-side issue
    /// cost the paper charges per READ (§2.2) is paid once per round
    /// instead of once per outstanding call.
    ///
    /// With `W = 1` (or a single request) every round degenerates to the
    /// sequential `send`/`recv` verbs — same WRITEs, same READs, same
    /// CPU charges, same telemetry — so the legacy path is exactly the
    /// `W = 1` instance of this driver.
    ///
    /// The driver runs in remote-fetch terms only and does not engage
    /// the hybrid mode switch mid-batch (it still feeds the
    /// consecutive-overrun guard, so a subsequent sequential call can
    /// switch). Verb errors from injected faults are absorbed: failed
    /// request WRITEs are re-deposited and errored fetch polls simply
    /// don't count as attempts, so the batch rides out a server restart
    /// the same way [`call_with_recovery`] rides one out per call.
    ///
    /// Returns one [`CallResult`] per request, in request order.
    ///
    /// # Panics
    ///
    /// Panics if the connection is in server-reply mode or any request
    /// exceeds the per-slot capacity.
    ///
    /// [`call_with_recovery`]: RfpClient::call_with_recovery
    pub async fn call_pipelined(&self, thread: &ThreadCtx, reqs: &[Vec<u8>]) -> Vec<CallResult> {
        assert_eq!(
            self.mode.get(),
            Mode::RemoteFetch,
            "call_pipelined drives remote fetching only"
        );
        let r = self.retry_threshold.get();
        let mut results: Vec<Option<CallResult>> = vec![None; reqs.len()];
        // Free ring slots, lowest on top so W=1 always stages slot 0.
        let mut free: Vec<usize> = (0..self.shared.cfg.window).rev().collect();
        // (request index, flight) per outstanding call.
        let mut flights: Vec<(usize, Flight)> = Vec::new();
        let mut next_req = 0usize;
        while next_req < reqs.len() || !flights.is_empty() {
            // Refill: stage fresh calls into free slots.
            while next_req < reqs.len() {
                let Some(slot) = free.pop() else { break };
                let fl = self.stage(thread, slot, &reqs[next_req], None, true);
                flights.push((next_req, fl));
                next_req += 1;
            }
            if let Some(h) = &self.health {
                h.set_inflight(thread.now(), flights.len() as u32);
            }
            // Submit: deposit staged requests. A single deposit uses the
            // synchronous WRITE (identical to `send`); two or more are
            // posted so their round trips overlap. A WRITE that
            // completes with a verb error stays pending and is retried
            // next round (the NACK round trip advanced time).
            let to_send: Vec<usize> = (0..flights.len())
                .filter(|&i| !flights[i].1.deposited)
                .collect();
            if let [i] = to_send[..] {
                let _ = self.deposit(thread, &mut flights[i].1).await;
            } else if to_send.len() >= 2 {
                let qp = self.qp();
                let mut posted = Vec::with_capacity(to_send.len());
                for &i in &to_send {
                    let fl = &flights[i].1;
                    let base = self.shared.req_off(fl.slot);
                    posted.push((
                        i,
                        qp.write_post(
                            thread,
                            &self.shared.client_req,
                            base,
                            &self.shared.req,
                            base,
                            fl.wire_len,
                        )
                        .await,
                    ));
                }
                for (i, c) in posted {
                    c.wait(thread).await;
                    if c.error().is_none() {
                        self.note_deposited(thread, &mut flights[i].1);
                    }
                }
            }
            // Poll: one fetch READ per deposited flight. A lone flight
            // fetches synchronously (identical to the sequential READ);
            // k ≥ 2 flights share one doorbell ring.
            let f = self.fetch_size.get();
            let pollable: Vec<usize> = (0..flights.len())
                .filter(|&i| flights[i].1.deposited)
                .collect();
            let mut landed = vec![false; flights.len()];
            if let [i] = pollable[..] {
                let base = self.shared.resp_off(flights[i].1.slot);
                if self
                    .qp()
                    .try_read(
                        thread,
                        &self.shared.client_resp,
                        base,
                        &self.shared.resp,
                        base,
                        f,
                    )
                    .await
                    .is_ok()
                {
                    landed[i] = true;
                    self.note_fetched(thread, &mut flights[i].1, f);
                    self.stats
                        .single_reads
                        .set(self.stats.single_reads.get() + 1);
                }
            } else if pollable.len() >= 2 {
                let qp = self.qp();
                let entries: Vec<_> = pollable
                    .iter()
                    .map(|&i| {
                        let base = self.shared.resp_off(flights[i].1.slot);
                        (
                            Rc::clone(&self.shared.client_resp),
                            base,
                            Rc::clone(&self.shared.resp),
                            base,
                            f,
                        )
                    })
                    .collect();
                let completions = qp.post_read_batch(thread, &entries).await;
                self.stats.doorbells.set(self.stats.doorbells.get() + 1);
                self.stats
                    .doorbell_reads
                    .set(self.stats.doorbell_reads.get() + completions.len() as u64);
                for (&i, c) in pollable.iter().zip(&completions) {
                    c.wait(thread).await;
                    if c.error().is_none() {
                        landed[i] = true;
                        self.note_fetched(thread, &mut flights[i].1, f);
                    }
                }
            }
            // Check: completed flights free their slot for the next
            // refill; the rest poll again (a corrupt image or a failed
            // remainder READ included).
            let mut kept = Vec::with_capacity(flights.len());
            for (i, (idx, mut fl)) in flights.into_iter().enumerate() {
                if landed[i] {
                    match self.check(thread, &mut fl, f).await {
                        Ok(Polled::Landed(_, out)) => {
                            if !fl.counted_over {
                                self.consec_over.set(0);
                            }
                            self.book(thread, &out, true, Some(fl.slot));
                            free.push(fl.slot);
                            results[idx] = Some(out);
                            continue;
                        }
                        Ok(Polled::Miss) if fl.attempts > r && !fl.counted_over => {
                            // Replicate the sequential overrun
                            // bookkeeping (never switching modes
                            // mid-batch).
                            fl.counted_over = true;
                            if self.shared.cfg.enable_mode_switch {
                                self.consec_over.set(self.consec_over.get() + 1);
                            }
                            if let Some(rec) = &self.shared.cfg.recorder {
                                rec.record(
                                    thread.now(),
                                    Some(self.shared.cfg.conn_id),
                                    fl.seq as u64,
                                    Severity::Warn,
                                    "pipeline.slot_stall",
                                    format!(
                                        "slot {} overran R={r} after {} fetches",
                                        fl.slot, fl.attempts
                                    ),
                                );
                            }
                            if let Some(h) = &self.health {
                                h.record_stall(thread.now());
                            }
                        }
                        _ => {}
                    }
                }
                kept.push((idx, fl));
            }
            flights = kept;
        }
        results
            .into_iter()
            .map(|r| r.expect("every pipelined call completes"))
            .collect()
    }

    /// The connection's overload-control knobs.
    pub fn overload_config(&self) -> &OverloadConfig {
        &self.shared.cfg.overload
    }

    /// Last credit level the server advertised on this connection.
    pub fn credits(&self) -> u16 {
        self.credits.get()
    }

    /// One overload-aware RPC (requires [`OverloadConfig::enabled`]).
    ///
    /// Submission is gated on the server's advertised credits (a zero
    /// level inserts a jittered pause), every submission stamps a
    /// deadline into the request header, and the response fetch stops
    /// tight-polling once that deadline passes, degrading to jittered
    /// verdict probes. A `Busy`/`Shed` verdict re-admits the call under
    /// the config's retry schedule **with a fresh sequence number** (a
    /// rejected request was provably never executed, so resubmission
    /// cannot double-execute) until the schedule — or the explicit
    /// `deadline` — is exhausted, at which point the call returns the
    /// rejection status with empty data instead of an error: under
    /// overload a rejected call is an expected outcome, not a fault.
    ///
    /// `deadline` semantics: `Some(d)` is a hard absolute bound for the
    /// *whole call*, stamped into every resubmission and clamping every
    /// pause; `None` gives each admission attempt a fresh
    /// `now + deadline` budget from the config.
    pub async fn call_overload(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        deadline: Option<SimTime>,
    ) -> CallResult {
        let ov = &self.shared.cfg.overload;
        assert!(ov.enabled, "call_overload requires overload control");
        let t0 = thread.now();
        self.last_flight.set(None);
        // Jitter stream: deterministic per (config seed, call seq), and
        // constructed without touching the simulation's shared RNG.
        let jitter = RefCell::new(StdRng::seed_from_u64(derive_seed(
            ov.seed,
            self.peek_next_seq() as u64,
        )));
        let probe_policy = RetryPolicy::exponential(
            ov.max_probes,
            ov.probe_pause,
            SimSpan::nanos(ov.probe_pause.as_nanos().saturating_mul(8)),
            0.25,
        );
        // The latest submission's flight; each resubmission carries the
        // call's counters forward.
        let last: Cell<Option<Flight>> = Cell::new(None);
        let (jitter, last, probe_policy) = (&jitter, &last, &probe_policy);
        let handle = thread.handle().clone();
        let outcome = retry_with_deadline(
            &handle,
            &ov.retry,
            deadline,
            || jitter.borrow_mut().gen::<f64>(),
            move |_attempt| async move {
                // Credit gate: a zero advertisement means the server's
                // queue was full — pause (jittered, so clients
                // desynchronise) instead of submitting work that will
                // bounce.
                if self.credits.get() == 0 {
                    self.note_overload(
                        thread,
                        "overload.credit_waits",
                        "zero credits: pausing before submit",
                    );
                    let unit: f64 = jitter.borrow_mut().gen();
                    let mut pause =
                        SimSpan::from_nanos_f64(ov.credit_wait.as_nanos() as f64 * (0.5 + unit));
                    if let Some(d) = deadline {
                        if thread.now() >= d {
                            return Err(RespStatus::Busy);
                        }
                        pause = pause.min(d.since(thread.now()));
                    }
                    if !pause.is_zero() {
                        thread.idle_wait(thread.handle().sleep(pause)).await;
                    }
                    // The pause expires the gate: submit optimistically —
                    // the worst case is one cheap Busy verdict refreshing
                    // the level.
                    self.credits.set(1);
                }
                let stamp = deadline.unwrap_or_else(|| thread.now() + ov.deadline);
                let mut fl = self
                    .stage(thread, self.take_slot(), req, Some(stamp), true)
                    .carry(last.get());
                self.deposit(thread, &mut fl).await.expect(WRITE_FAILED);
                last.set(Some(fl));
                let mut probes = 0u32;
                loop {
                    if thread.now() > stamp {
                        // Past the deadline the verdict is (or shortly
                        // will be) `Shed`: stop burning the in-bound
                        // engine on tight polling and probe at a
                        // widening, jittered pace.
                        if probes >= ov.max_probes.max(1) {
                            self.note_overload(
                                thread,
                                "overload.local_sheds",
                                "gave up probing for a verdict",
                            );
                            return Err(RespStatus::Shed);
                        }
                        probes += 1;
                        let unit: f64 = jitter.borrow_mut().gen();
                        let pause = probe_policy.backoff_for(probes, unit);
                        if !pause.is_zero() {
                            thread.idle_wait(thread.handle().sleep(pause)).await;
                        }
                    }
                    // Verdicts are verified too: a corrupt fetch must not
                    // surface a spurious rejection (or a bogus payload).
                    let polled = self.poll(thread, &mut fl).await.expect(READ_FAILED);
                    last.set(Some(fl));
                    match polled {
                        Polled::Landed(RespStatus::Ok, out) => return Ok(out),
                        Polled::Landed(status, _) => {
                            self.note_rejection(thread, status, None);
                            return Err(status);
                        }
                        Polled::Miss | Polled::Corrupt => {}
                    }
                }
            },
        )
        .await;
        let (mut out, executed) = match outcome {
            Ok(out) => (out, true),
            Err(exhausted) => {
                self.note_overload(
                    thread,
                    "overload.give_ups",
                    "call gave up after repeated rejections",
                );
                (rejected_call(exhausted.last, SimSpan::ZERO), false)
            }
        };
        // The call's counters span all of its submissions; its latency
        // spans credit waits and backoffs too. Only executed calls feed
        // the throughput/latency stats; rejections are accounted by the
        // overload counters.
        if let Some(fl) = last.get() {
            out.info.attempts = fl.attempts;
            out.info.extra_read = fl.extra_read;
            out.info.integrity_retries = fl.integrity_retries;
        }
        out.info.latency = thread.now() - t0;
        let slot = self.shared.slot_of(self.seq.get());
        self.book(thread, &out, executed, Some(slot));
        out
    }

    /// Records one discarded-and-retried fetch against the integrity
    /// instruments (`fetch.torn` / `fetch.crc_fail` plus the shared
    /// `fetch.integrity_retries`). Lazy like the recovery counters: a
    /// run that never sees a corrupt fetch materialises no instrument.
    fn note_integrity_failure(&self, thread: &ThreadCtx, fault: IntegrityFault) {
        let counter = match fault {
            IntegrityFault::Torn => "fetch.torn",
            IntegrityFault::CrcMismatch => "fetch.crc_fail",
        };
        if let Some(ins) = &self.instruments {
            ins.telemetry.registry.counter(counter).incr();
            ins.telemetry
                .registry
                .counter("fetch.integrity_retries")
                .incr();
        }
        if let Some(trace) = &self.shared.cfg.trace {
            trace.record(
                thread.now(),
                "rfp.integrity",
                format!(
                    "seq {}: {fault:?} fetch discarded — refetching",
                    self.seq.get()
                ),
            );
        }
        self.flight(
            thread,
            Severity::Error,
            counter,
            format!("{fault:?} fetch discarded — refetching"),
        );
        if let Some(h) = &self.health {
            h.record_corrupt(thread.now());
        }
    }

    /// Verifies one fully fetched response image in the landing zone
    /// (header from the first segment, payload + trailing canary as
    /// currently fetched), whose footprint already passed
    /// [`resp_len_plausible`](RfpClient::resp_len_plausible). `Err`
    /// carries the failure class; the caller discards the fetch and
    /// retries. No-op `Ok` with the layer off.
    fn verify_fetched(
        &self,
        thread: &ThreadCtx,
        slot: usize,
        hdr: &RespHeader,
    ) -> Result<(), IntegrityFault> {
        if !self.shared.cfg.integrity.enabled {
            return Ok(());
        }
        let wire_hdr = hdr.wire_len();
        let size = hdr.size as usize;
        let base = self.shared.resp_off(slot);
        let outcome = self.shared.client_resp.with_bytes(|bytes| {
            verify_response(
                hdr,
                &bytes[base + wire_hdr..base + wire_hdr + size],
                &bytes[base + wire_hdr + size..base + wire_hdr + size + RESP_TRAILER],
            )
        });
        if let Err(fault) = outcome {
            self.note_integrity_failure(thread, fault);
        }
        outcome
    }

    /// Whether a fetched header's claimed footprint fits the response
    /// buffer. Always true with integrity off (the server is trusted);
    /// with it on, a flipped size bit must not drive the second READ
    /// past the registered region.
    fn resp_len_plausible(&self, total: usize) -> bool {
        !self.shared.cfg.integrity.enabled || total <= self.shared.cfg.resp_capacity
    }

    /// Total fetched footprint of a response: wire header + payload +
    /// (with integrity on) the trailing canary. The two-segment fetch
    /// must cover all of it before the response can be verified.
    fn resp_total_len(&self, hdr: &RespHeader) -> usize {
        let trailer = if self.shared.cfg.integrity.enabled {
            RESP_TRAILER
        } else {
            0
        };
        hdr.wire_len() + hdr.size as usize + trailer
    }

    /// Bumps an `overload.*` counter and trace entry. Lazy like the
    /// recovery counters: a run that never hits the overload machinery
    /// materialises no instrument.
    fn note_overload(&self, thread: &ThreadCtx, counter: &'static str, what: &str) {
        if let Some(ins) = &self.instruments {
            ins.telemetry.registry.counter(counter).incr();
        }
        if let Some(trace) = &self.shared.cfg.trace {
            trace.record(
                thread.now(),
                "rfp.overload",
                format!("seq {}: {what}", self.seq.get()),
            );
        }
        self.flight(thread, Severity::Warn, counter, what.to_string());
        if let Some(h) = &self.health {
            match counter {
                "overload.credit_waits" => h.record_credit_wait(thread.now()),
                "overload.busy_seen" => h.record_busy(thread.now()),
                "overload.sheds_seen" | "overload.local_sheds" => h.record_shed(thread.now()),
                _ => {}
            }
        }
    }

    /// Notes a server rejection verdict (`Busy`/`Shed`/`Fenced`) against
    /// its counter; `what` overrides the verdict's own description.
    pub(crate) fn note_rejection(
        &self,
        thread: &ThreadCtx,
        status: RespStatus,
        what: Option<&str>,
    ) {
        let (counter, verdict) = match status {
            RespStatus::Busy => ("overload.busy_seen", "server answered Busy"),
            RespStatus::Fenced => (
                "recovery.fenced_seen",
                "server fenced a stale-epoch request",
            ),
            _ => ("overload.sheds_seen", "server shed the request"),
        };
        self.note_overload(thread, counter, what.unwrap_or(verdict));
    }

    /// `recv` in remote-fetch mode: polls until the response lands,
    /// switching the connection to server-reply once calls overrun `R`
    /// failed retries consecutively (paper §3.2).
    async fn recv_fetching(&self, thread: &ThreadCtx, fl: &mut Flight) -> CallResult {
        let r = self.retry_threshold.get();
        loop {
            match self.poll(thread, fl).await.expect(READ_FAILED) {
                Polled::Landed(_, out) => {
                    if !fl.counted_over {
                        self.consec_over.set(0);
                    }
                    return out;
                }
                Polled::Corrupt => continue,
                Polled::Miss => {}
            }
            // Failed attempt. Past R failed retries this call counts
            // toward the consecutive-overrun guard exactly once.
            if fl.attempts > r && !fl.counted_over {
                fl.counted_over = true;
                if self.shared.cfg.enable_mode_switch {
                    let over = self.consec_over.get() + 1;
                    self.consec_over.set(over);
                    if over >= self.shared.cfg.consecutive_before_switch {
                        self.switch_mode(thread, Mode::ServerReply).await;
                        // The reply phase counts its own discards.
                        fl.integrity_retries = 0;
                        return self.recv_replied(thread, fl).await;
                    }
                }
            }
        }
    }

    /// `recv` in server-reply mode: waits (idle) for the pushed reply,
    /// with a fallback fetch covering the post-before-flag race, and
    /// switches back to remote fetching once the server-reported
    /// process time is short again (paper §3.2).
    async fn recv_replied(&self, thread: &ThreadCtx, fl: &mut Flight) -> CallResult {
        let base = self.shared.resp_off(fl.slot);
        loop {
            // The server pushes (and the fallback fetch reads) the whole
            // image, so the check needs no remainder READ; a corrupt
            // image falls through to the wait/fallback below, which
            // refreshes the landing zone.
            let full = self.shared.cfg.resp_capacity;
            if let Polled::Landed(_, mut out) =
                self.check(thread, fl, full).await.expect(READ_FAILED)
            {
                self.span_mark(thread, fl.slot, "reply_received");
                if self.shared.cfg.enable_mode_switch
                    && SimSpan::micros(out.info.server_time_us as u64)
                        < self.shared.cfg.switch_back_below
                    && self.mode.get() == Mode::ServerReply
                {
                    self.switch_mode(thread, Mode::RemoteFetch).await;
                }
                out.info.completed_in = Mode::ServerReply;
                out.info.latency = thread.now() - fl.t0;
                return out;
            }
            // Block (idle — no busy polling in reply mode, which is the
            // whole CPU saving of Figure 15) until a reply lands.
            let landed = thread
                .idle_wait(timeout(
                    thread.handle(),
                    self.shared.cfg.reply_fallback_poll,
                    self.shared
                        .client_resp
                        .wait_remote_write(base..base + RESP_HDR),
                ))
                .await;
            if landed.is_none() {
                // Safety fetch: the server may have posted the response
                // locally before it saw the mode flag.
                if let Some(trace) = &self.shared.cfg.trace {
                    trace.record(
                        thread.now(),
                        "rfp.fallback",
                        format!("seq {}: fallback fetch after reply-wait timeout", fl.seq),
                    );
                }
                fl.attempts += 1;
                let f = self.fetch_size.get().max(self.shared.cfg.resp_capacity);
                self.qp()
                    .read(
                        thread,
                        &self.shared.client_resp,
                        base,
                        &self.shared.resp,
                        base,
                        f,
                    )
                    .await;
                self.span_mark(thread, fl.slot, "fallback_fetch_read");
                if let Some(ins) = &self.instruments {
                    ins.fallback_fetches.incr();
                    ins.fetch_bytes.add(f as u64);
                }
            }
        }
    }

    /// One fault-tolerant RPC: deposits the request, fetches the
    /// response under a per-attempt deadline, and on failure backs off
    /// (jittered exponential), re-establishes an errored QP, and
    /// resubmits under the **same** sequence number so a restarted
    /// server dedups the replay. See [`RecoveryConfig`].
    ///
    /// The exception is an attempt following a `Busy`/`Shed`/`Fenced`
    /// rejection: the rejected request was provably never executed, so
    /// it is staged fresh under a **new** sequence (reusing the rejected
    /// one would match the stale verdict response forever). An attempt
    /// that exhausts its verify-and-refetch budget
    /// ([`FailureCause::Corrupt`]) makes the next one re-establish the
    /// QP even though it reports no error state: persistent corruption
    /// on a "healthy" QP is invisible to the transport.
    ///
    /// Always runs in remote-fetch terms (the recovery path does not
    /// interact with the hybrid mode switch). On a healthy cluster the
    /// first attempt succeeds and this behaves exactly like
    /// [`call`](RfpClient::call) in remote-fetch mode: no recovery
    /// instrument is created, no extra event is scheduled.
    pub async fn call_with_recovery(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        rec: &RecoveryConfig,
    ) -> Result<CallResult, RpcError> {
        let ov = &self.shared.cfg.overload;
        let t0 = thread.now();
        self.last_flight.set(None);
        // Wire stamp (overload only) and the client-side clamp bounding
        // retry backoffs and per-attempt fetch deadlines: the tighter of
        // the overload deadline and the recovery call deadline.
        let stamp = ov.enabled.then(|| t0 + ov.deadline);
        let clamp = match (rec.call_deadline, stamp) {
            (Some(d), Some(s)) => Some(s.min(t0 + d)),
            (Some(d), None) => Some(t0 + d),
            (None, s) => s,
        };
        // Jitter stream: deterministic per (config seed, call seq), and
        // constructed without touching the simulation's shared RNG.
        let mut jitter_rng =
            StdRng::seed_from_u64(derive_seed(rec.seed, self.peek_next_seq() as u64));
        // The call's current flight, re-staged when `refresh` is set
        // (initially, and after a rejection).
        let flight: Cell<Option<Flight>> = Cell::new(None);
        let refresh = Cell::new(true);
        let force_reconnect = Cell::new(false);
        let (flight, refresh, force_reconnect) = (&flight, &refresh, &force_reconnect);
        let handle = thread.handle().clone();
        let outcome = retry_with_deadline(
            &handle,
            &rec.retry,
            clamp,
            || jitter_rng.gen::<f64>(),
            move |attempt| async move {
                if attempt > 0 {
                    let what = if refresh.get() {
                        "resubmitting rejected request under a fresh seq"
                    } else {
                        "resubmitting request under the same seq"
                    };
                    self.note_recovery(thread, "recovery.resubmits", what);
                    if force_reconnect.take() || self.qp().error_state().is_some() {
                        self.reestablish_qp(thread, rec).await;
                    }
                }
                let mut fl = match (refresh.take(), flight.get()) {
                    (false, Some(fl)) => fl,
                    (_, prev) => self
                        .stage(thread, self.take_slot(), req, stamp, false)
                        .carry(prev),
                };
                flight.set(Some(fl));
                self.deposit(thread, &mut fl)
                    .await
                    .map_err(|e| self.verb_failure(thread, e))?;
                let mut deadline = thread.now() + rec.fetch_deadline;
                if let Some(c) = clamp {
                    deadline = deadline.min(c);
                }
                // Consecutive corrupt fetches within *this* attempt; at
                // the configured budget the attempt fails with `Corrupt`.
                let mut corrupt_streak = 0u32;
                loop {
                    let polled = self.poll(thread, &mut fl).await;
                    flight.set(Some(fl));
                    match polled.map_err(|e| self.verb_failure(thread, e))? {
                        Polled::Landed(RespStatus::Ok, out) => return Ok(out),
                        Polled::Landed(status, _) => {
                            self.note_rejection(
                                thread,
                                status,
                                Some("server rejected the request"),
                            );
                            refresh.set(true);
                            return Err(FailureCause::Rejected(status));
                        }
                        Polled::Corrupt => {
                            corrupt_streak += 1;
                            if corrupt_streak >= self.shared.cfg.integrity.verify_retries {
                                self.note_recovery(
                                    thread,
                                    "recovery.corrupt_attempts",
                                    "verify-and-refetch budget exhausted",
                                );
                                force_reconnect.set(true);
                                return Err(FailureCause::Corrupt);
                            }
                        }
                        Polled::Miss => {}
                    }
                    if thread.now() >= deadline {
                        self.note_recovery(
                            thread,
                            "recovery.deadlines",
                            "attempt deadline expired",
                        );
                        return Err(FailureCause::Deadline);
                    }
                }
            },
        )
        .await;
        match outcome {
            Ok(mut out) => {
                // Latency spans the whole recovered call, backoffs
                // included.
                out.info.latency = thread.now() - t0;
                self.book(thread, &out, true, None);
                Ok(out)
            }
            Err(exhausted) => {
                self.note_recovery(thread, "recovery.failed_calls", "call exhausted its budget");
                Err(RpcError {
                    attempts: exhausted.attempts,
                    last: exhausted.last,
                })
            }
        }
    }

    /// Stages and deposits one hedge leg under a fresh sequence number,
    /// without entering a fetch loop: the replica router races legs on
    /// different replicas, polls each with [`poll`](RfpClient::poll) and
    /// books the winner with [`book`](RfpClient::book). The leg carries
    /// the same header layout and overload stamp as a
    /// [`call_with_recovery`](RfpClient::call_with_recovery) first
    /// attempt, so the server cannot tell it from an ordinary call.
    pub(crate) async fn hedge_deposit(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
    ) -> Result<Flight, FailureCause> {
        let ov = &self.shared.cfg.overload;
        self.last_flight.set(None);
        let stamp = ov.enabled.then(|| thread.now() + ov.deadline);
        let mut fl = self.stage(thread, self.take_slot(), req, stamp, false);
        self.deposit(thread, &mut fl)
            .await
            .map_err(|e| self.verb_failure(thread, e))?;
        Ok(fl)
    }

    /// This connection's rolling health window, when the config wired
    /// one in. The replica router's scorer reads it.
    pub(crate) fn conn_health(&self) -> Option<&Rc<ConnHealth>> {
        self.health.as_ref()
    }

    /// Re-establishes the QP via the installed factory (charging the
    /// reconnect CPU cost). Without a factory the old QP stays in place.
    async fn reestablish_qp(&self, thread: &ThreadCtx, rec: &RecoveryConfig) {
        let fresh = {
            let factory = self.reconnect.borrow();
            factory.as_ref().map(|f| f())
        };
        let Some(fresh) = fresh else { return };
        // Connection handshake + MR re-registration.
        thread.busy(rec.reconnect_cpu).await;
        *self.qp.borrow_mut() = fresh;
        self.note_recovery(thread, "recovery.reconnects", "QP re-established");
        if let Some(h) = &self.health {
            h.record_reconnect(thread.now());
        }
    }

    /// Records a verb error completion against the recovery instruments.
    pub(crate) fn verb_failure(&self, thread: &ThreadCtx, e: VerbError) -> FailureCause {
        self.note_recovery(thread, "recovery.verb_errors", "verb completed with error");
        if let Some(h) = &self.health {
            h.record_verb_error(thread.now());
        }
        FailureCause::Verb(e)
    }

    /// Bumps a `recovery.*` counter and trace entry. Instruments are
    /// created lazily at the first event, so a run without faults never
    /// materialises them — keeping fault-free metric output byte-equal
    /// to a build without recovery wired in.
    pub(crate) fn note_recovery(&self, thread: &ThreadCtx, counter: &'static str, what: &str) {
        if let Some(ins) = &self.instruments {
            ins.telemetry.registry.counter(counter).incr();
        }
        if let Some(trace) = &self.shared.cfg.trace {
            trace.record(
                thread.now(),
                "rfp.recovery",
                format!("seq {}: {what}", self.seq.get()),
            );
        }
        let severity = if counter == "recovery.failed_calls" {
            Severity::Error
        } else {
            Severity::Warn
        };
        self.flight(thread, severity, counter, what.to_string());
    }

    /// Books the replica router abandoning this connection: the
    /// `recovery.failovers` counter, a `recovery.failover` link chained
    /// onto the failed call's flight-recorder cause chain, and the
    /// health plane's failover signal. Lazy like the rest of the
    /// recovery telemetry: a run that never fails over creates nothing.
    pub(crate) fn note_failover(&self, thread: &ThreadCtx, detail: String) {
        if let Some(ins) = &self.instruments {
            ins.telemetry.registry.counter("recovery.failovers").incr();
        }
        if let Some(trace) = &self.shared.cfg.trace {
            trace.record(thread.now(), "rfp.recovery", detail.clone());
        }
        if let Some(h) = &self.health {
            h.record_failover(thread.now());
        }
        self.flight(thread, Severity::Warn, "recovery.failover", detail);
    }

    async fn switch_mode(&self, thread: &ThreadCtx, to: Mode) {
        let byte = match to {
            Mode::RemoteFetch => MODE_REMOTE_FETCH,
            Mode::ServerReply => MODE_SERVER_REPLY,
        };
        self.shared.client_mode.write_local(0, &[byte]);
        self.qp()
            .write(thread, &self.shared.client_mode, 0, &self.shared.mode, 0, 1)
            .await;
        self.mode.set(to);
        self.consec_over.set(0);
        self.span_mark(thread, self.shared.slot_of(self.seq.get()), "mode_switched");
        if let Some(trace) = &self.shared.cfg.trace {
            trace.record(thread.now(), "rfp.mode", format!("switched to {to:?}"));
        }
        self.flight(
            thread,
            Severity::Info,
            "rfp.mode_switch",
            format!("switched to {to:?}"),
        );
        if let Some(ins) = &self.instruments {
            ins.mode.set(mode_level(to));
            match to {
                Mode::ServerReply => ins.switches_to_reply.incr(),
                Mode::RemoteFetch => ins.switches_to_fetch.incr(),
            }
        }
        match to {
            Mode::ServerReply => self
                .stats
                .switches_to_reply
                .set(self.stats.switches_to_reply.get() + 1),
            Mode::RemoteFetch => self
                .stats
                .switches_to_fetch
                .set(self.stats.switches_to_fetch.get() + 1),
        }
    }
}
