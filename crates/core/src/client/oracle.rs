//! Frozen copies of the client's call engines as they stood before the
//! one-engine rebuild, kept as the reference the rebuilt
//! [`RfpClient`] entry points are checked against.
//!
//! Each engine here wrote its own copy of request staging, the fetch
//! READ with its landed-response check, the rejection note and the
//! completion booking. The proptest at the bottom runs seeded scenarios
//! once through these copies and once through the rebuilt entry points
//! and compares everything a caller or operator can observe: payloads,
//! [`CallInfo`], [`ClientStats`], the registry JSON, spans, the flight
//! recorder and trace dumps, health reports, NIC counters and the final
//! clock.
//!
//! The only edits to the frozen code: names carry a `legacy_` prefix,
//! the send step returns its latency epoch instead of storing it in a
//! client field, and `legacy_call` is `send` followed by `recv`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_rnic::ThreadCtx;
use rfp_simnet::{
    derive_seed, retry_with_deadline, timeout, RequestTrace, RetryPolicy, Severity, SimSpan,
    SimTime,
};

use super::{CallInfo, CallResult, RfpClient};
use crate::conn::Mode;
use crate::header::{
    ReqHeader, RespHeader, RespStatus, REQ_HDR, REQ_HDR_EXT, REQ_HDR_TENANT, RESP_HDR, RESP_TRAILER,
};
use crate::integrity::{verify_response, IntegrityFault};
use crate::recovery::{FailureCause, RecoveryConfig, RpcError};

/// Mutable state shared by the attempts of one recovered call.
struct AttemptState<'a> {
    req: &'a [u8],
    /// Absolute deadline stamped into the wire header (overload only).
    stamp: Option<SimTime>,
    /// Stage the request under a fresh sequence number before the next
    /// submission: set initially and after a `Busy`/`Shed` rejection
    /// (whose request was never executed, so a new seq cannot
    /// double-execute — while reusing the rejected seq would match the
    /// stale verdict response forever).
    refresh: Cell<bool>,
    /// Fetch READs issued across all attempts.
    fetches: Cell<u32>,
    /// Fetches discarded by integrity verification across all attempts.
    integrity_retries: Cell<u32>,
    /// Escalation marker set when an attempt exhausted its
    /// verify-and-refetch budget ([`FailureCause::Corrupt`]): the next
    /// attempt re-establishes the QP even though it reports no error
    /// state — persistent corruption on a "healthy" QP is the one fault
    /// the transport cannot see.
    force_reconnect: Cell<bool>,
}

/// One outstanding call of the pipelined driver
/// ([`RfpClient::legacy_call_pipelined`]).
struct Flight {
    /// Index into the caller's request batch (and the result vector).
    idx: usize,
    /// Ring slot carrying this call.
    slot: usize,
    seq: u32,
    /// Staged request bytes on the wire (header + payload).
    wire_len: usize,
    /// When the call was staged (latency epoch, like `sent_at`).
    t0: SimTime,
    /// Fetch READs that actually sampled the slot (the paper's `N`).
    attempts: u32,
    integrity_retries: u32,
    /// Whether this call already counted toward the consecutive-overrun
    /// guard (at most once per call, like the sequential path).
    counted_over: bool,
    /// The request WRITE has not (successfully) deposited yet.
    needs_send: bool,
}
impl RfpClient {
    /// Allocates a `(slot, seq)` pair at the sequential paths' rotating
    /// cursor. With `W = 1` this is slot 0 and `seq + 1`, always.
    fn legacy_alloc_next_seq(&self) -> (usize, u32) {
        let slot = self.next_slot.get();
        self.next_slot.set((slot + 1) % self.shared.cfg.window);
        (slot, self.alloc_seq_in(slot))
    }

    /// [`send`](RfpClient::send) with an absolute deadline stamped into
    /// the (extended) request header, for servers running admission
    /// control. Without a deadline the wire bytes are identical to the
    /// legacy 8-byte header.
    pub(super) async fn legacy_send_with_deadline(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        deadline: Option<SimTime>,
    ) -> SimTime {
        let max = self.req_headroom(deadline.is_some());
        assert!(req.len() <= max, "request exceeds buffer capacity");
        let (slot, seq) = self.legacy_alloc_next_seq();
        let sent_at = thread.now();
        if let Some(ins) = &self.instruments {
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
        self.qp()
            .write(
                thread,
                &self.shared.client_req,
                base,
                &self.shared.req,
                base,
                hdr_len + req.len(),
            )
            .await;
        self.span_mark(thread, slot, "request_written");
        sent_at
    }

    /// `client_recv`: obtains the response for the last
    /// [`send`](RfpClient::send), via repeated remote fetching or
    /// server-reply depending on the connection mode.
    ///
    /// The reported latency spans from the matching `send` (end-to-end
    /// call time).
    async fn legacy_recv(&self, thread: &ThreadCtx, t0: SimTime) -> CallResult {
        let seq = self.seq.get();
        let out = match self.mode.get() {
            Mode::RemoteFetch => self.legacy_recv_remote_fetch(thread, seq, t0).await,
            Mode::ServerReply => self.legacy_recv_server_reply(thread, seq, t0, 0).await,
        };
        self.legacy_record_completion(thread, self.shared.slot_of(seq), &out);
        out
    }

    /// Books one finished call against the stats/instruments and closes
    /// `slot`'s span — shared verbatim by the sequential and pipelined
    /// drivers so their per-call telemetry is identical.
    fn legacy_record_completion(&self, thread: &ThreadCtx, slot: usize, out: &CallResult) {
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
            if out.info.extra_read {
                ins.extra_reads.incr();
            }
            if let Some(mut span) = self.shared.span_mut(slot).take() {
                span.mark_unordered(thread.now(), "completed");
                ins.telemetry.spans.record(span);
            }
        }
    }

    /// One full RPC: send, then receive.
    pub(super) async fn legacy_call(&self, thread: &ThreadCtx, req: &[u8]) -> CallResult {
        let t0 = self.legacy_send_with_deadline(thread, req, None).await;
        self.legacy_recv(thread, t0).await
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
    /// the same way [`legacy_call_with_recovery`] rides one out per call.
    ///
    /// Returns one [`CallResult`] per request, in request order.
    ///
    /// # Panics
    ///
    /// Panics if the connection is in server-reply mode or any request
    /// exceeds the per-slot capacity.
    ///
    /// [`legacy_call_with_recovery`]: RfpClient::legacy_call_with_recovery
    pub(super) async fn legacy_call_pipelined(
        &self,
        thread: &ThreadCtx,
        reqs: &[Vec<u8>],
    ) -> Vec<CallResult> {
        assert_eq!(
            self.mode.get(),
            Mode::RemoteFetch,
            "legacy_call_pipelined drives remote fetching only"
        );
        let window = self.shared.cfg.window;
        let r = self.retry_threshold.get();
        let max = self.req_headroom(false);
        for req in reqs {
            assert!(req.len() <= max, "request exceeds buffer capacity");
        }
        let mut results: Vec<Option<CallResult>> = reqs.iter().map(|_| None).collect();
        // Free ring slots, lowest on top so W=1 always stages slot 0.
        let mut free: Vec<usize> = (0..window).rev().collect();
        let mut flights: Vec<Flight> = Vec::new();
        let mut next_req = 0usize;
        while next_req < reqs.len() || !flights.is_empty() {
            // Refill: stage fresh calls into free slots (bytes + span;
            // the deposit WRITE happens in the submit step below).
            while next_req < reqs.len() {
                let Some(slot) = free.pop() else { break };
                let req = &reqs[next_req];
                let seq = self.alloc_seq_in(slot);
                if let Some(ins) = &self.instruments {
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
                    deadline: None,
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
                flights.push(Flight {
                    idx: next_req,
                    slot,
                    seq,
                    wire_len: hdr_len + req.len(),
                    t0: thread.now(),
                    attempts: 0,
                    integrity_retries: 0,
                    counted_over: false,
                    needs_send: true,
                });
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
            let to_send: Vec<usize> = flights
                .iter()
                .enumerate()
                .filter_map(|(i, fl)| fl.needs_send.then_some(i))
                .collect();
            if to_send.len() == 1 {
                let i = to_send[0];
                let (slot, wire_len) = (flights[i].slot, flights[i].wire_len);
                let base = self.shared.req_off(slot);
                if self
                    .qp()
                    .try_write(
                        thread,
                        &self.shared.client_req,
                        base,
                        &self.shared.req,
                        base,
                        wire_len,
                    )
                    .await
                    .is_ok()
                {
                    flights[i].needs_send = false;
                    self.span_mark(thread, slot, "request_written");
                }
            } else if to_send.len() >= 2 {
                let qp = self.qp();
                let mut posted = Vec::with_capacity(to_send.len());
                for &i in &to_send {
                    let (slot, wire_len) = (flights[i].slot, flights[i].wire_len);
                    let base = self.shared.req_off(slot);
                    posted.push((
                        i,
                        qp.write_post(
                            thread,
                            &self.shared.client_req,
                            base,
                            &self.shared.req,
                            base,
                            wire_len,
                        )
                        .await,
                    ));
                }
                for (i, c) in posted {
                    c.wait(thread).await;
                    if c.error().is_none() {
                        flights[i].needs_send = false;
                        self.span_mark(thread, flights[i].slot, "request_written");
                    }
                }
            }
            // Poll: one fetch READ per deposited flight. A lone flight
            // fetches synchronously (identical to the sequential READ);
            // k ≥ 2 flights share one doorbell ring.
            let f = self.fetch_size.get();
            let pollable: Vec<usize> = flights
                .iter()
                .enumerate()
                .filter_map(|(i, fl)| (!fl.needs_send).then_some(i))
                .collect();
            let mut landed = vec![false; flights.len()];
            if pollable.len() == 1 {
                let i = pollable[0];
                let slot = flights[i].slot;
                let base = self.shared.resp_off(slot);
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
                    flights[i].attempts += 1;
                    self.span_mark(thread, slot, "fetch_read");
                    if let Some(ins) = &self.instruments {
                        ins.fetch_bytes.add(f as u64);
                    }
                    self.stats
                        .single_reads
                        .set(self.stats.single_reads.get() + 1);
                }
            } else if pollable.len() >= 2 {
                let qp = self.qp();
                let entries: Vec<_> = pollable
                    .iter()
                    .map(|&i| {
                        let base = self.shared.resp_off(flights[i].slot);
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
                        flights[i].attempts += 1;
                        self.span_mark(thread, flights[i].slot, "fetch_read");
                        if let Some(ins) = &self.instruments {
                            ins.fetch_bytes.add(f as u64);
                        }
                    }
                }
            }
            // Check: decode every landed fetch; completed flights free
            // their slot for the next refill, the rest poll again.
            let mut kept = Vec::with_capacity(flights.len());
            for (i, mut fl) in flights.into_iter().enumerate() {
                if !landed[i] {
                    kept.push(fl);
                    continue;
                }
                thread.busy(self.shared.cfg.check_cpu).await;
                let hdr = self.resp_hdr_at(fl.slot);
                if !self.accept_resp(&hdr, fl.seq) {
                    // Missed poll: replicate the sequential overrun
                    // bookkeeping (never switching modes mid-batch).
                    if fl.attempts > r && !fl.counted_over {
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
                    kept.push(fl);
                    continue;
                }
                let total = self.legacy_resp_total_len(&hdr);
                if !self.legacy_resp_len_plausible(total) {
                    self.note_integrity_failure(thread, IntegrityFault::Torn);
                    fl.integrity_retries += 1;
                    kept.push(fl);
                    continue;
                }
                let base = self.shared.resp_off(fl.slot);
                let size = hdr.size as usize;
                let mut extra_read = false;
                if total > f {
                    let rest = total - f;
                    if self
                        .qp()
                        .try_read(
                            thread,
                            &self.shared.client_resp,
                            base + f,
                            &self.shared.resp,
                            base + f,
                            rest,
                        )
                        .await
                        .is_err()
                    {
                        kept.push(fl);
                        continue;
                    }
                    self.span_mark(thread, fl.slot, "extra_fetch_read");
                    if let Some(ins) = &self.instruments {
                        ins.fetch_bytes.add(rest as u64);
                    }
                    extra_read = true;
                }
                if self.legacy_verify_fetched(thread, fl.slot, &hdr).is_err() {
                    fl.integrity_retries += 1;
                    kept.push(fl);
                    continue;
                }
                if !fl.counted_over {
                    self.consec_over.set(0);
                }
                self.note_accepted(&hdr);
                let out = CallResult {
                    data: self
                        .shared
                        .client_resp
                        .read_local(base + hdr.wire_len(), size),
                    info: CallInfo {
                        attempts: fl.attempts,
                        extra_read,
                        completed_in: Mode::RemoteFetch,
                        latency: thread.now() - fl.t0,
                        server_time_us: hdr.time_us,
                        status: hdr.status,
                        integrity_retries: fl.integrity_retries,
                    },
                };
                self.legacy_record_completion(thread, fl.slot, &out);
                free.push(fl.slot);
                results[fl.idx] = Some(out);
            }
            flights = kept;
        }
        results
            .into_iter()
            .map(|r| r.expect("every pipelined call completes"))
            .collect()
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
    pub(super) async fn legacy_call_overload(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        deadline: Option<SimTime>,
    ) -> CallResult {
        let ov = &self.shared.cfg.overload;
        assert!(ov.enabled, "legacy_call_overload requires overload control");
        assert!(
            req.len() <= self.req_headroom(true),
            "request exceeds buffer capacity"
        );
        let t0 = thread.now();
        self.last_flight.set(None);
        let first_seq = self.peek_next_seq();
        // Jitter stream: deterministic per (config seed, call seq), and
        // constructed without touching the simulation's shared RNG.
        let jitter = RefCell::new(StdRng::seed_from_u64(derive_seed(
            ov.seed,
            first_seq as u64,
        )));
        let handle = thread.handle().clone();
        let fetches = Cell::new(0u32);
        let extra = Cell::new(false);
        let integrity_retries = Cell::new(0u32);
        let outcome = retry_with_deadline(
            &handle,
            &ov.retry,
            deadline,
            || jitter.borrow_mut().gen::<f64>(),
            |_attempt| {
                self.legacy_attempt_overload(
                    thread,
                    req,
                    deadline,
                    &fetches,
                    &extra,
                    &integrity_retries,
                    &jitter,
                )
            },
        )
        .await;
        let (data, status, server_time_us) = match outcome {
            Ok((data, time_us)) => (data, RespStatus::Ok, time_us),
            Err(exhausted) => {
                self.note_overload(
                    thread,
                    "overload.give_ups",
                    "call gave up after repeated rejections",
                );
                (Vec::new(), exhausted.last, 0)
            }
        };
        let info = CallInfo {
            attempts: fetches.get(),
            extra_read: extra.get(),
            completed_in: Mode::RemoteFetch,
            latency: thread.now() - t0,
            server_time_us,
            status,
            integrity_retries: integrity_retries.get(),
        };
        if status == RespStatus::Ok {
            // Only executed calls feed the throughput/latency stats;
            // rejections are accounted by the overload counters.
            self.stats.record(&info);
            if let Some(h) = &self.health {
                h.record_call(
                    thread.now(),
                    info.latency,
                    info.attempts.saturating_sub(1) as u64,
                    data.len(),
                    info.server_time_us,
                );
            }
            if let Some(ins) = &self.instruments {
                ins.calls.incr();
                ins.latency.record(info.latency);
                ins.retries.add(info.attempts.saturating_sub(1) as u64);
                if info.extra_read {
                    ins.extra_reads.incr();
                }
            }
        }
        if let Some(ins) = &self.instruments {
            let slot = self.shared.slot_of(self.seq.get());
            if let Some(mut span) = self.shared.span_mut(slot).take() {
                span.mark_unordered(
                    thread.now(),
                    if status == RespStatus::Ok {
                        "completed"
                    } else {
                        "gave_up"
                    },
                );
                ins.telemetry.spans.record(span);
            }
        }
        CallResult { data, info }
    }

    /// One overload admission attempt: credit gate, deadline-stamped
    /// submission, deadline-bounded fetch. `Err` carries the rejection
    /// verdict (from the server, or locally synthesised when the probes
    /// for a verdict ran out).
    #[allow(clippy::too_many_arguments)]
    async fn legacy_attempt_overload(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        call_deadline: Option<SimTime>,
        fetches: &Cell<u32>,
        extra: &Cell<bool>,
        integrity_retries: &Cell<u32>,
        jitter: &RefCell<StdRng>,
    ) -> Result<(Vec<u8>, u16), RespStatus> {
        let ov = &self.shared.cfg.overload;
        // Credit gate: a zero advertisement means the server's queue was
        // full — pause (jittered, so clients desynchronise) instead of
        // submitting work that will bounce.
        if self.credits.get() == 0 {
            self.note_overload(
                thread,
                "overload.credit_waits",
                "zero credits: pausing before submit",
            );
            let unit: f64 = jitter.borrow_mut().gen();
            let mut pause =
                SimSpan::from_nanos_f64(ov.credit_wait.as_nanos() as f64 * (0.5 + unit));
            if let Some(d) = call_deadline {
                if thread.now() >= d {
                    return Err(RespStatus::Busy);
                }
                pause = pause.min(d.since(thread.now()));
            }
            if !pause.is_zero() {
                thread.idle_wait(thread.handle().sleep(pause)).await;
            }
            // The pause expires the gate: submit optimistically — the
            // worst case is one cheap Busy verdict refreshing the level.
            self.credits.set(1);
        }
        let deadline = call_deadline.unwrap_or_else(|| thread.now() + ov.deadline);
        self.legacy_send_with_deadline(thread, req, Some(deadline))
            .await;
        let seq = self.seq.get();
        let slot = self.shared.slot_of(seq);
        let base = self.shared.resp_off(slot);
        let probe_policy = RetryPolicy::exponential(
            ov.max_probes,
            ov.probe_pause,
            SimSpan::nanos(ov.probe_pause.as_nanos().saturating_mul(8)),
            0.25,
        );
        let mut probes = 0u32;
        loop {
            if thread.now() > deadline {
                // Past the deadline the verdict is (or shortly will be)
                // `Shed`: stop burning the in-bound engine on tight
                // polling and probe at a widening, jittered pace.
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
            let f = self.fetch_size.get();
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
            fetches.set(fetches.get() + 1);
            self.span_mark(thread, slot, "fetch_read");
            if let Some(ins) = &self.instruments {
                ins.fetch_bytes.add(f as u64);
            }
            thread.busy(self.shared.cfg.check_cpu).await;
            let hdr = self.resp_hdr_at(slot);
            if !self.accept_resp(&hdr, seq) {
                continue;
            }
            let total = self.legacy_resp_total_len(&hdr);
            if !self.legacy_resp_len_plausible(total) {
                self.note_integrity_failure(thread, IntegrityFault::Torn);
                integrity_retries.set(integrity_retries.get() + 1);
                continue;
            }
            let size = hdr.size as usize;
            if total > f {
                let rest = total - f;
                self.qp()
                    .read(
                        thread,
                        &self.shared.client_resp,
                        base + f,
                        &self.shared.resp,
                        base + f,
                        rest,
                    )
                    .await;
                self.span_mark(thread, slot, "extra_fetch_read");
                if let Some(ins) = &self.instruments {
                    ins.fetch_bytes.add(rest as u64);
                }
                extra.set(true);
            }
            if self.legacy_verify_fetched(thread, slot, &hdr).is_err() {
                // Verdicts are verified too: a corrupt fetch must not
                // surface a spurious rejection (or a bogus payload).
                integrity_retries.set(integrity_retries.get() + 1);
                continue;
            }
            self.note_accepted(&hdr);
            match hdr.status {
                RespStatus::Ok => {
                    return Ok((
                        self.shared
                            .client_resp
                            .read_local(base + hdr.wire_len(), size),
                        hdr.time_us,
                    ));
                }
                RespStatus::Busy => {
                    self.note_overload(thread, "overload.busy_seen", "server answered Busy");
                    return Err(RespStatus::Busy);
                }
                RespStatus::Shed => {
                    self.note_overload(thread, "overload.sheds_seen", "server shed the request");
                    return Err(RespStatus::Shed);
                }
                RespStatus::Fenced => {
                    self.note_overload(
                        thread,
                        "recovery.fenced_seen",
                        "server fenced a stale-epoch request",
                    );
                    return Err(RespStatus::Fenced);
                }
            }
        }
    }

    /// Verifies one fully fetched response image in the landing zone
    /// (header from the first segment, payload + trailing canary as
    /// currently fetched). `Err` carries the failure class; the caller
    /// discards the fetch and retries. No-op `Ok` with the layer off.
    fn legacy_verify_fetched(
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
        let outcome = if wire_hdr + size + RESP_TRAILER > self.shared.cfg.resp_capacity {
            // A flipped size bit can claim more payload than the buffer
            // holds; classify it as torn instead of reading past the MR.
            Err(IntegrityFault::Torn)
        } else {
            let base = self.shared.resp_off(slot);
            self.shared.client_resp.with_bytes(|bytes| {
                verify_response(
                    hdr,
                    &bytes[base + wire_hdr..base + wire_hdr + size],
                    &bytes[base + wire_hdr + size..base + wire_hdr + size + RESP_TRAILER],
                )
            })
        };
        if let Err(fault) = outcome {
            self.note_integrity_failure(thread, fault);
        }
        outcome
    }

    /// Whether a fetched header's claimed footprint fits the response
    /// buffer. Always true with integrity off (the server is trusted);
    /// with it on, a flipped size bit must not drive the second READ
    /// past the registered region.
    fn legacy_resp_len_plausible(&self, total: usize) -> bool {
        !self.shared.cfg.integrity.enabled || total <= self.shared.cfg.resp_capacity
    }

    /// Total fetched footprint of a response: wire header + payload +
    /// (with integrity on) the trailing canary. The two-segment fetch
    /// must cover all of it before the response can be verified.
    fn legacy_resp_total_len(&self, hdr: &RespHeader) -> usize {
        let trailer = if self.shared.cfg.integrity.enabled {
            RESP_TRAILER
        } else {
            0
        };
        hdr.wire_len() + hdr.size as usize + trailer
    }

    async fn legacy_recv_remote_fetch(
        &self,
        thread: &ThreadCtx,
        seq: u32,
        t0: rfp_simnet::SimTime,
    ) -> CallResult {
        let r = self.retry_threshold.get();
        let slot = self.shared.slot_of(seq);
        let base = self.shared.resp_off(slot);
        let mut attempts = 0u32;
        let mut integrity_retries = 0u32;
        let mut counted_over = false;
        loop {
            attempts += 1;
            let f = self.fetch_size.get();
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
            self.span_mark(thread, slot, "fetch_read");
            if let Some(ins) = &self.instruments {
                ins.fetch_bytes.add(f as u64);
            }
            thread.busy(self.shared.cfg.check_cpu).await;
            let hdr = self.resp_hdr_at(slot);
            if self.accept_resp(&hdr, seq) {
                let total = self.legacy_resp_total_len(&hdr);
                if !self.legacy_resp_len_plausible(total) {
                    self.note_integrity_failure(thread, IntegrityFault::Torn);
                    integrity_retries += 1;
                    continue;
                }
                let size = hdr.size as usize;
                let mut extra_read = false;
                if total > f {
                    // Second fetch for the remainder (paper §3.2: only if
                    // the real result exceeds the default fetch size).
                    let rest = total - f;
                    self.qp()
                        .read(
                            thread,
                            &self.shared.client_resp,
                            base + f,
                            &self.shared.resp,
                            base + f,
                            rest,
                        )
                        .await;
                    self.span_mark(thread, slot, "extra_fetch_read");
                    if let Some(ins) = &self.instruments {
                        ins.fetch_bytes.add(rest as u64);
                    }
                    extra_read = true;
                }
                if self.legacy_verify_fetched(thread, slot, &hdr).is_err() {
                    // Discard the fetched image and refetch: the next READ
                    // samples the buffer afresh.
                    integrity_retries += 1;
                    continue;
                }
                if !counted_over {
                    self.consec_over.set(0);
                }
                self.note_accepted(&hdr);
                return CallResult {
                    data: self
                        .shared
                        .client_resp
                        .read_local(base + hdr.wire_len(), size),
                    info: CallInfo {
                        attempts,
                        extra_read,
                        completed_in: Mode::RemoteFetch,
                        latency: thread.now() - t0,
                        server_time_us: hdr.time_us,
                        status: hdr.status,
                        integrity_retries,
                    },
                };
            }
            // Failed attempt. Past R failed retries this call counts
            // toward the consecutive-overrun guard exactly once.
            if attempts > r && !counted_over {
                counted_over = true;
                if self.shared.cfg.enable_mode_switch {
                    let over = self.consec_over.get() + 1;
                    self.consec_over.set(over);
                    if over >= self.shared.cfg.consecutive_before_switch {
                        self.switch_mode(thread, Mode::ServerReply).await;
                        return self
                            .legacy_recv_server_reply(thread, seq, t0, attempts)
                            .await;
                    }
                }
            }
        }
    }

    async fn legacy_recv_server_reply(
        &self,
        thread: &ThreadCtx,
        seq: u32,
        t0: rfp_simnet::SimTime,
        prior_attempts: u32,
    ) -> CallResult {
        let slot = self.shared.slot_of(seq);
        let base = self.shared.resp_off(slot);
        let mut attempts = prior_attempts;
        let mut integrity_retries = 0u32;
        loop {
            thread.busy(self.shared.cfg.check_cpu).await;
            let hdr = self.resp_hdr_at(slot);
            // In reply mode the server pushes (and the fallback fetch
            // reads) the whole image, so verification needs no second
            // READ; a corrupt image falls through to the wait/fallback
            // below, which refreshes the landing zone.
            if self.accept_resp(&hdr, seq) && self.legacy_verify_fetched(thread, slot, &hdr).is_ok()
            {
                self.span_mark(thread, slot, "reply_received");
                let size = hdr.size as usize;
                let data = self
                    .shared
                    .client_resp
                    .read_local(base + hdr.wire_len(), size);
                // §3.2: record the server's response time; if it got
                // short again, remote fetching is profitable — switch
                // back.
                if self.shared.cfg.enable_mode_switch
                    && SimSpan::micros(hdr.time_us as u64) < self.shared.cfg.switch_back_below
                    && self.mode.get() == Mode::ServerReply
                {
                    self.switch_mode(thread, Mode::RemoteFetch).await;
                }
                self.note_accepted(&hdr);
                return CallResult {
                    data,
                    info: CallInfo {
                        attempts,
                        extra_read: false,
                        completed_in: Mode::ServerReply,
                        latency: thread.now() - t0,
                        server_time_us: hdr.time_us,
                        status: hdr.status,
                        integrity_retries,
                    },
                };
            }
            if self.accept_resp(&hdr, seq) {
                // Matching but corrupt (legacy_verify_fetched noted it above).
                integrity_retries += 1;
            }
            // Block (idle — no busy polling in reply mode, which is the
            // whole CPU saving of Figure 15) until a reply lands, with a
            // fallback fetch covering the post-before-flag race.
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
                        format!("seq {seq}: fallback fetch after reply-wait timeout"),
                    );
                }
                attempts += 1;
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
                self.span_mark(thread, slot, "fallback_fetch_read");
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
    /// Always runs in remote-fetch terms (the recovery path does not
    /// interact with the hybrid mode switch). On a healthy cluster the
    /// first attempt succeeds and this behaves exactly like
    /// [`call`](RfpClient::call) in remote-fetch mode: no recovery
    /// instrument is created, no extra event is scheduled.
    pub(super) async fn legacy_call_with_recovery(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        rec: &RecoveryConfig,
    ) -> Result<CallResult, RpcError> {
        let ov = &self.shared.cfg.overload;
        let max = self.req_headroom(ov.enabled);
        assert!(req.len() <= max, "request exceeds buffer capacity");
        let t0 = thread.now();
        self.last_flight.set(None);
        // Wire stamp (overload only) and the client-side clamp bounding
        // retry backoffs and per-attempt fetch deadlines: the tighter of
        // the overload deadline and the recovery call deadline.
        let stamp = if ov.enabled {
            Some(t0 + ov.deadline)
        } else {
            None
        };
        let clamp = match (rec.call_deadline, stamp) {
            (Some(d), Some(s)) => Some(s.min(t0 + d)),
            (Some(d), None) => Some(t0 + d),
            (None, s) => s,
        };
        let first_seq = self.peek_next_seq();
        let state = AttemptState {
            req,
            stamp,
            refresh: Cell::new(true),
            fetches: Cell::new(0),
            integrity_retries: Cell::new(0),
            force_reconnect: Cell::new(false),
        };

        // Jitter stream: deterministic per (config seed, call seq), and
        // constructed without touching the simulation's shared RNG.
        let mut jitter_rng = StdRng::seed_from_u64(derive_seed(rec.seed, first_seq as u64));
        let handle = thread.handle().clone();
        let outcome = retry_with_deadline(
            &handle,
            &rec.retry,
            clamp,
            || jitter_rng.gen::<f64>(),
            |attempt| self.legacy_attempt_call(thread, attempt, rec, clamp, &state),
        )
        .await;
        let fetches = &state.fetches;
        match outcome {
            Ok(mut out) => {
                // Latency spans the whole recovered call, backoffs
                // included.
                out.info.latency = thread.now() - t0;
                out.info.attempts = fetches.get();
                self.stats.record(&out.info);
                if let Some(h) = &self.health {
                    h.record_call(
                        thread.now(),
                        out.info.latency,
                        out.info.attempts.saturating_sub(1) as u64,
                        out.data.len(),
                        out.info.server_time_us,
                    );
                }
                if let Some(ins) = &self.instruments {
                    ins.calls.incr();
                    ins.latency.record(out.info.latency);
                    ins.retries.add(out.info.attempts.saturating_sub(1) as u64);
                }
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

    /// One recovery attempt: (re)submit the request, then fetch until
    /// the per-attempt deadline.
    ///
    /// Submissions reuse the staged bytes — and the staged sequence —
    /// so a restarted server dedups the replay. The exception is an
    /// attempt following a `Busy`/`Shed` rejection: the rejected
    /// request was provably never executed, so the resubmission is
    /// staged fresh under a **new** sequence (reusing the rejected one
    /// would match the stale verdict response forever).
    async fn legacy_attempt_call(
        &self,
        thread: &ThreadCtx,
        attempt: u32,
        rec: &RecoveryConfig,
        clamp: Option<rfp_simnet::SimTime>,
        state: &AttemptState<'_>,
    ) -> Result<CallResult, FailureCause> {
        if attempt > 0 {
            let what = if state.refresh.get() {
                "resubmitting rejected request under a fresh seq"
            } else {
                "resubmitting request under the same seq"
            };
            self.note_recovery(thread, "recovery.resubmits", what);
            // A corrupt-exhausted attempt escalates to reconnection even
            // though the QP reports no error: persistent corruption on a
            // "healthy" QP is invisible to the transport.
            if state.force_reconnect.take() || self.qp().error_state().is_some() {
                self.reestablish_qp(thread, rec).await;
            }
        }
        if state.refresh.take() {
            let (slot, seq) = self.legacy_alloc_next_seq();
            let hdr = ReqHeader {
                valid: true,
                size: state.req.len() as u32,
                seq,
                deadline: state.stamp,
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
            self.shared
                .client_req
                .write_local(base + hdr_len, state.req);
        }
        let seq = self.seq.get();
        let slot = self.shared.slot_of(seq);
        let req_base = self.shared.req_off(slot);
        let resp_base = self.shared.resp_off(slot);
        // Must mirror `ReqHeader::wire_len` for the header deposited in
        // this slot — a nonzero epoch forces the 24-byte layout even
        // without a tenant (an epoch adopted mid-call always re-deposits:
        // `Fenced` sets the refresh flag).
        let hdr_len = if self.tenant.get().is_some() || self.epoch.get() != 0 {
            REQ_HDR_TENANT
        } else if state.stamp.is_some() {
            REQ_HDR_EXT
        } else {
            REQ_HDR
        };
        let wire_len = hdr_len + state.req.len();
        let fetches = &state.fetches;
        let qp = self.qp();
        qp.try_write(
            thread,
            &self.shared.client_req,
            req_base,
            &self.shared.req,
            req_base,
            wire_len,
        )
        .await
        .map_err(|e| self.verb_failure(thread, e))?;

        let mut deadline = thread.now() + rec.fetch_deadline;
        if let Some(c) = clamp {
            deadline = deadline.min(c);
        }
        // Consecutive corrupt fetches within *this* attempt; at the
        // configured budget the attempt fails with `Corrupt` and the
        // next one escalates to reconnection.
        let mut corrupt_streak = 0u32;
        loop {
            let f = self.fetch_size.get();
            qp.try_read(
                thread,
                &self.shared.client_resp,
                resp_base,
                &self.shared.resp,
                resp_base,
                f,
            )
            .await
            .map_err(|e| self.verb_failure(thread, e))?;
            fetches.set(fetches.get() + 1);
            if let Some(ins) = &self.instruments {
                ins.fetch_bytes.add(f as u64);
            }
            thread.busy(self.shared.cfg.check_cpu).await;
            let hdr = self.resp_hdr_at(slot);
            let mut corrupt = false;
            if self.accept_resp(&hdr, seq) {
                let total = self.legacy_resp_total_len(&hdr);
                if !self.legacy_resp_len_plausible(total) {
                    self.note_integrity_failure(thread, IntegrityFault::Torn);
                    corrupt = true;
                } else {
                    let size = hdr.size as usize;
                    let mut extra_read = false;
                    if total > f {
                        let rest = total - f;
                        qp.try_read(
                            thread,
                            &self.shared.client_resp,
                            resp_base + f,
                            &self.shared.resp,
                            resp_base + f,
                            rest,
                        )
                        .await
                        .map_err(|e| self.verb_failure(thread, e))?;
                        if let Some(ins) = &self.instruments {
                            ins.fetch_bytes.add(rest as u64);
                        }
                        extra_read = true;
                    }
                    if self.legacy_verify_fetched(thread, slot, &hdr).is_ok() {
                        self.note_accepted(&hdr);
                        if hdr.status != RespStatus::Ok {
                            let counter = match hdr.status {
                                RespStatus::Busy => "overload.busy_seen",
                                RespStatus::Fenced => "recovery.fenced_seen",
                                _ => "overload.sheds_seen",
                            };
                            self.note_overload(thread, counter, "server rejected the request");
                            state.refresh.set(true);
                            return Err(FailureCause::Rejected(hdr.status));
                        }
                        return Ok(CallResult {
                            data: self
                                .shared
                                .client_resp
                                .read_local(resp_base + hdr.wire_len(), size),
                            info: CallInfo {
                                attempts: fetches.get(),
                                extra_read,
                                completed_in: Mode::RemoteFetch,
                                latency: SimSpan::ZERO, // patched by the caller
                                server_time_us: hdr.time_us,
                                status: hdr.status,
                                integrity_retries: state.integrity_retries.get(),
                            },
                        });
                    }
                    corrupt = true;
                }
            }
            if corrupt {
                state
                    .integrity_retries
                    .set(state.integrity_retries.get() + 1);
                corrupt_streak += 1;
                if corrupt_streak >= self.shared.cfg.integrity.verify_retries {
                    self.note_recovery(
                        thread,
                        "recovery.corrupt_attempts",
                        "verify-and-refetch budget exhausted",
                    );
                    state.force_reconnect.set(true);
                    return Err(FailureCause::Corrupt);
                }
            }
            if thread.now() >= deadline {
                self.note_recovery(thread, "recovery.deadlines", "attempt deadline expired");
                return Err(FailureCause::Deadline);
            }
        }
    }
}

/// The seeded identity scenarios.
mod identity {
    use std::cell::RefCell;
    use std::rc::Rc;

    use proptest::collection::vec;
    use proptest::prelude::*;

    use rfp_rnic::{Cluster, ClusterProfile, NicCounters, ThreadCtx};
    use rfp_simnet::{
        FlightRecorder, HealthConfig, HealthHub, MetricsRegistry, SimSpan, Simulation,
        SpanRecorder, TraceLog,
    };

    use super::super::{ClientStats, RfpClient};
    use crate::conn::{connect, Mode, RfpConfig, RfpTelemetry};
    use crate::integrity::IntegrityConfig;
    use crate::overload::OverloadConfig;
    use crate::recovery::RecoveryConfig;
    use crate::server::serve_loop;

    /// Which entry point every client of the scenario drives.
    #[derive(Copy, Clone, Debug)]
    enum Entry {
        Call,
        Pipelined,
        Overload,
        Recovery,
        /// Call `k` runs `call`, `call_overload`, `call_with_recovery`
        /// or a two-call pipelined batch, by `k mod 4`.
        Mixed,
    }

    /// One injected fault window on the server machine.
    #[derive(Copy, Clone, Debug)]
    enum Fault {
        /// The server is down for the window (verb errors both ways).
        Crash,
        /// Every QP touching the server errors at the window's start;
        /// recovery re-establishes its own.
        QpError,
        Torn,
        BitFlip,
    }

    #[derive(Clone, Debug)]
    struct Scenario {
        seed: u64,
        entry: Entry,
        window: usize,
        integrity: bool,
        overload: bool,
        /// Two requests in three (in service order) take 20 µs to
        /// serve, so the hybrid switch fires and switches back, and a
        /// resubmission may meet a different service time.
        slow: bool,
        /// Overload deadline budget: tight (requests shed, recovered
        /// calls give up at the first rejection) or long enough for a
        /// rejected call to be resubmitted.
        deadline_us: u64,
        clients: usize,
        calls: usize,
        sizes: Vec<usize>,
        /// `(kind, start µs, length µs)`.
        faults: Vec<(Fault, u64, u64)>,
    }

    /// Everything a caller or operator can observe about one run.
    #[derive(Debug, PartialEq, Eq)]
    struct Observed {
        now_ns: u64,
        /// Per client, per call: payload and `CallInfo` (or the error).
        outcomes: Vec<Vec<String>>,
        stats: Vec<String>,
        registry_json: String,
        spans: String,
        recorder: String,
        trace: String,
        health: String,
        nics: Vec<NicCounters>,
    }

    fn stats_line(s: &ClientStats) -> String {
        let lat = &s.latency;
        format!(
            "calls {} fetches {} extra {} to_reply {} to_fetch {} hist {:?} doorbells {} \
             doorbell_reads {} single_reads {} lat {} {:?} {:?} {:?}",
            s.calls.get(),
            s.fetch_attempts.get(),
            s.extra_reads.get(),
            s.switches_to_reply.get(),
            s.switches_to_fetch.get(),
            s.attempts_hist.borrow(),
            s.doorbells.get(),
            s.doorbell_reads.get(),
            s.single_reads.get(),
            lat.len(),
            lat.mean(),
            lat.percentile(0.5),
            lat.max(),
        )
    }

    fn run(sc: &Scenario, legacy: bool) -> Observed {
        let mut sim = Simulation::new(sc.seed);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let registry = MetricsRegistry::new();
        let spans = SpanRecorder::new(64);
        let recorder = FlightRecorder::new(256);
        let trace = TraceLog::new(256);
        let health = HealthHub::new(HealthConfig::default());
        let mut clients = Vec::new();
        let mut conns = Vec::new();
        for i in 0..sc.clients {
            let cfg = RfpConfig {
                window: sc.window,
                integrity: IntegrityConfig {
                    enabled: sc.integrity,
                    ..IntegrityConfig::default()
                },
                overload: OverloadConfig {
                    enabled: sc.overload,
                    queue_limit: 1,
                    deadline: SimSpan::micros(sc.deadline_us),
                    seed: derive(sc.seed, i),
                    ..OverloadConfig::default()
                },
                telemetry: Some(RfpTelemetry {
                    registry: registry.clone(),
                    spans: spans.clone(),
                    prefix: format!("rfp.client.{i}"),
                    track: i as u32,
                }),
                trace: Some(trace.clone()),
                recorder: Some(recorder.clone()),
                health: Some(health.clone()),
                conn_id: i as u32,
                ..RfpConfig::default()
            };
            let (cl, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
            cl.set_reconnect(cluster.qp_factory(0, 1));
            clients.push(Rc::new(cl));
            conns.push(Rc::new(conn));
        }
        let slow = sc.slow;
        let mut served = 0u64;
        sim.spawn(serve_loop(
            sm.thread("server"),
            conns,
            move |req: &[u8]| {
                served += 1;
                let process = if slow && !served.is_multiple_of(3) {
                    SimSpan::micros(20)
                } else {
                    SimSpan::nanos(300)
                };
                (req.to_vec(), process)
            },
            SimSpan::nanos(100),
        ));
        for &(fault, start_us, len_us) in &sc.faults {
            let (h, sm) = (sim.handle(), Rc::clone(&sm));
            sim.spawn(async move {
                h.sleep(SimSpan::micros(start_us)).await;
                let faults = sm.faults();
                match fault {
                    Fault::Crash => faults.set_crashed(true),
                    Fault::QpError => faults.bump_qp_epoch(),
                    Fault::Torn => faults.set_torn_dma(0.3),
                    Fault::BitFlip => faults.set_bitflip(0.3),
                }
                h.sleep(SimSpan::micros(len_us)).await;
                match fault {
                    Fault::Crash => faults.set_crashed(false),
                    Fault::QpError => {}
                    Fault::Torn => faults.set_torn_dma(0.0),
                    Fault::BitFlip => faults.set_bitflip(0.0),
                }
            });
        }
        let outcomes = Rc::new(RefCell::new(vec![Vec::new(); sc.clients]));
        for (i, client) in clients.iter().enumerate() {
            let (client, t, out) = (
                Rc::clone(client),
                cm.thread(format!("c{i}")),
                Rc::clone(&outcomes),
            );
            let (entry, calls, sizes) = (sc.entry, sc.calls, sc.sizes.clone());
            let payload = move |k: usize| -> Vec<u8> {
                let len = sizes[(i + k) % sizes.len()];
                (0..len).map(|b| (b + i * 31 + k * 7) as u8).collect()
            };
            let rec = RecoveryConfig {
                seed: derive(7, i),
                ..RecoveryConfig::default()
            };
            sim.spawn(async move {
                let push = |s: String| out.borrow_mut()[i].push(s);
                if let Entry::Pipelined = entry {
                    let reqs: Vec<Vec<u8>> = (0..calls).map(&payload).collect();
                    for line in pipelined(&client, &t, &reqs, legacy).await {
                        push(line);
                    }
                    return;
                }
                for k in 0..calls {
                    let req = payload(k);
                    // A mixed client cycles through the engines on one
                    // connection, so each meets the state the others
                    // leave behind (spans, overrun streaks, credits).
                    let engine = match entry {
                        Entry::Mixed => [
                            Entry::Call,
                            Entry::Overload,
                            Entry::Recovery,
                            Entry::Pipelined,
                        ][k % 4],
                        e => e,
                    };
                    match engine {
                        Entry::Pipelined if client.mode() == Mode::RemoteFetch => {
                            let reqs = vec![req, payload(k + 1)];
                            for line in pipelined(&client, &t, &reqs, legacy).await {
                                push(line);
                            }
                        }
                        Entry::Overload => {
                            let o = if legacy {
                                client.legacy_call_overload(&t, &req, None).await
                            } else {
                                client.call_overload(&t, &req, None).await
                            };
                            push(format!("{:?} {:?}", o.data, o.info));
                        }
                        Entry::Recovery => {
                            let o = if legacy {
                                client.legacy_call_with_recovery(&t, &req, &rec).await
                            } else {
                                client.call_with_recovery(&t, &req, &rec).await
                            };
                            push(match o {
                                Ok(o) => format!("{:?} {:?}", o.data, o.info),
                                Err(e) => format!("{e:?}"),
                            });
                        }
                        _ => {
                            let o = if legacy {
                                client.legacy_call(&t, &req).await
                            } else {
                                client.call(&t, &req).await
                            };
                            push(format!("{:?} {:?}", o.data, o.info));
                        }
                    }
                }
            });
        }
        sim.run_for(SimSpan::millis(8));

        let mut registry_json = Vec::new();
        registry
            .snapshot()
            .write_json(&mut registry_json)
            .expect("render registry");
        let mut recorder_dump = Vec::new();
        recorder.dump(&mut recorder_dump).expect("dump recorder");
        let mut trace_dump = Vec::new();
        trace.dump(&mut trace_dump).expect("dump trace");
        let outcomes = outcomes.borrow().clone();
        Observed {
            now_ns: sim.now().as_nanos(),
            outcomes,
            stats: clients.iter().map(|c| stats_line(c.stats())).collect(),
            registry_json: String::from_utf8(registry_json).expect("utf8"),
            spans: format!("{} {:?}", spans.recorded(), spans.snapshot()),
            recorder: String::from_utf8(recorder_dump).expect("utf8"),
            trace: String::from_utf8(trace_dump).expect("utf8"),
            health: format!("{:?}", health.report(sim.now())),
            nics: (0..2)
                .map(|m| cluster.machine(m).nic().counters())
                .collect(),
        }
    }

    async fn pipelined(
        client: &RfpClient,
        t: &ThreadCtx,
        reqs: &[Vec<u8>],
        legacy: bool,
    ) -> Vec<String> {
        let outs = if legacy {
            client.legacy_call_pipelined(t, reqs).await
        } else {
            client.call_pipelined(t, reqs).await
        };
        outs.iter()
            .map(|o| format!("{:?} {:?}", o.data, o.info))
            .collect()
    }

    fn derive(seed: u64, i: usize) -> u64 {
        rfp_simnet::derive_seed(seed, 0xC11E + i as u64)
    }

    /// Fault windows an entry point can ride out: the panicking engines
    /// (`call`, `call_overload`) see only fetch corruption, which needs
    /// the integrity layer to be caught; the pipelined driver absorbs
    /// verb errors but cannot re-establish an errored QP.
    fn allowed(entry: Entry, integrity: bool, fault: Fault) -> bool {
        match fault {
            Fault::Torn | Fault::BitFlip => integrity,
            Fault::Crash => matches!(entry, Entry::Pipelined | Entry::Recovery),
            Fault::QpError => matches!(entry, Entry::Recovery),
        }
    }

    impl Scenario {
        /// Drops the fault windows the entry point cannot ride out and
        /// turns overload control on where the entry point needs it.
        fn normalized(mut self) -> Self {
            let (entry, integrity) = (self.entry, self.integrity);
            self.faults
                .retain(|&(f, _, _)| allowed(entry, integrity, f));
            self.overload |= matches!(entry, Entry::Overload | Entry::Mixed);
            self
        }
    }

    /// The scenario space is not vacuous: hand-picked points of it fire
    /// the hybrid switch, the remainder READ, discarded corrupt fetches,
    /// overload rejections, resubmission under a fresh seq, verb errors,
    /// QP re-establishment and doorbell batches.
    #[test]
    fn identity_scenarios_reach_every_path() {
        let base = |entry| Scenario {
            seed: 1,
            entry,
            window: 1,
            integrity: false,
            overload: false,
            slow: false,
            deadline_us: 8,
            clients: 1,
            calls: 11,
            sizes: vec![40, 300],
            faults: vec![],
        };
        let slow = run(
            &Scenario {
                slow: true,
                ..base(Entry::Call)
            },
            false,
        );
        assert!(!slow.stats[0].contains("to_reply 0 "), "{}", slow.stats[0]);
        assert!(!slow.stats[0].contains("extra 0 "), "{}", slow.stats[0]);
        let corrupt = run(
            &Scenario {
                integrity: true,
                window: 2,
                sizes: vec![500],
                faults: vec![(Fault::BitFlip, 0, 120)],
                ..base(Entry::Call)
            },
            false,
        );
        assert!(corrupt.registry_json.contains("fetch.crc_fail"));
        let shed = run(
            &Scenario {
                overload: true,
                slow: true,
                clients: 3,
                ..base(Entry::Overload)
            },
            false,
        );
        assert!(shed.registry_json.contains("overload.sheds_seen"));
        let resubmit = run(
            &Scenario {
                overload: true,
                slow: true,
                deadline_us: 300,
                clients: 3,
                ..base(Entry::Recovery)
            },
            false,
        );
        assert!(resubmit.recorder.contains("under a fresh seq"));
        let crash = run(
            &Scenario {
                integrity: true,
                window: 8,
                clients: 2,
                faults: vec![(Fault::QpError, 20, 50), (Fault::Crash, 60, 100)],
                ..base(Entry::Recovery)
            },
            false,
        );
        assert!(crash.registry_json.contains("recovery.reconnects"));
        assert!(crash.registry_json.contains("recovery.verb_errors"));
        let batched = run(
            &Scenario {
                window: 8,
                faults: vec![(Fault::Crash, 10, 60)],
                ..base(Entry::Pipelined)
            },
            false,
        );
        assert!(
            !batched.stats[0].contains("doorbells 0 "),
            "{}",
            batched.stats[0]
        );
    }

    proptest! {
        /// The rebuilt entry points are byte-identical to the frozen
        /// engines on every observable surface.
        #[test]
        fn entry_points_match_the_frozen_engines(
            seed in 0u64..1_000,
            entry in 0usize..5,
            wexp in 0usize..3,
            integrity in any::<bool>(),
            overload in any::<bool>(),
            slow in any::<bool>(),
            long_deadline in any::<bool>(),
            clients in 1usize..4,
            calls in 1usize..12,
            sizes in vec(0usize..700, 1..4),
            faults in vec((0usize..4, 0u64..150, 5u64..120), 0..3),
        ) {
            let sc = Scenario {
                seed,
                entry: [
                    Entry::Call,
                    Entry::Pipelined,
                    Entry::Overload,
                    Entry::Recovery,
                    Entry::Mixed,
                ][entry],
                window: [1, 2, 8][wexp],
                integrity,
                overload,
                slow,
                deadline_us: if long_deadline { 300 } else { 8 },
                clients,
                calls,
                sizes,
                faults: faults
                    .into_iter()
                    .map(|(k, start, len)| {
                        let kind = [Fault::Crash, Fault::QpError, Fault::Torn, Fault::BitFlip][k];
                        (kind, start, len)
                    })
                    .collect(),
            }
            .normalized();
            let rebuilt = run(&sc, false);
            let frozen = run(&sc, true);
            prop_assert_eq!(rebuilt, frozen);
        }
    }
}
