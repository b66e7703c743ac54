//! The threaded engine: invocation-scoped token motion on a shared
//! [`ExecutorPool`], and its two drivers — a solo run
//! ([`run_threaded_compiled_pooled_with`], also behind
//! [`crate::parallel::run_threaded`]) and a serving session ([`serve`])
//! of many concurrent invocations of one compiled graph.
//!
//! On a Monsoon-style explicit-token-store machine, unrelated
//! activations share one waiting-matching store and are told apart only
//! by their tag contexts — the hardware never needs to know where one
//! program ends and the next begins, and a solo run is simply a store
//! holding one activation. This engine works the same way. Every token
//! carries an *invocation* index, and every rendezvous key packs it into
//! the high bits of the tag word ([`TagSplit`],
//! [`crate::compiled::key_inv`]), so tokens of concurrent requests flow
//! through the *same* sharded slot table, the same run queues and the
//! same workers, yet can never match each other. A solo run is one
//! admitted invocation under `TagSplit::for_inflight(1)` (no invocation
//! bits at all), scheduled from the calling thread; a session admits up
//! to `max_inflight` at once and keeps the workers up between requests.
//!
//! Per-invocation state that genuinely must be private — memory, the
//! tag interner (each invocation gets its own reserved slice of the tag
//! space), fuel, counters, failure — lives in an invocation slot; the
//! expensive shared machinery (worker threads, run queues, rendezvous
//! shards) is allocated once per run or session.
//!
//! Isolation invariants (pinned by the tests here and in
//! `tests/chaos.rs` / `tests/parallel_equivalence.rs`):
//!
//! * admission is bounded: at most `max_inflight` invocations hold
//!   slots; further [`ServeHandle::submit`] calls block (backpressure);
//! * one invocation's failure — operator panic, memory fault, fuel or
//!   tag exhaustion — fails *that request only*: its remaining tokens
//!   drain as tombstones, its slot is reclaimed, and neighbors and the
//!   pool are untouched;
//! * a request's result is bit-identical to a solo run of the same graph
//!   (equivalence tests check both against the deterministic simulator).
//!
//! Quiescence is detected per invocation with a live-token count that
//! never understates the invocation's tokens: a worker settles it once
//! per run of same-invocation tokens in its batch, adding what the run
//! emitted (before the batch flush makes those tokens visible) and
//! subtracting what it consumed (`Session::settle`). The count
//! reaching zero therefore means no token of that invocation exists
//! anywhere — queued, stolen, or mid-fire — at which point the slot is
//! finalized: its leftover rendezvous entries are purged from the
//! shared table and the run is classified (see `Session::verdict`).
//! There is no worker-local rendezvous fast path: DESIGN.md §8.2 records
//! the measurements behind its removal.

use crate::chaos::ChaosTallies;
use crate::compiled::{
    fire_op, key_inv, unkey_inv, CKind, CompiledGraph, Engine, FireInputs, FireVals, SlotVals,
};
use crate::exec::MachineError;
use crate::hash::FxHashMap;
use crate::memory::{DeferredRead, MemError};
use crate::metrics::{ParMetrics, ServeStats, WorkerStats};
use crate::parallel::{
    ChaosState, ExecutorPool, FireEvent, ParConfig, ParMemory, ParOutcome, ParTagTable, TraceRing,
};
use crate::scheduler::{lock, render_panic, Ctx, Outcome, Scheduler};
use crate::tag::{TagId, TagSplit};
use cf2df_cfg::{LoopId, MemLayout, VarId};
use cf2df_dfg::{OpId, Port};
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Shards in the rendezvous-slot table.
const SLOT_SHARDS: usize = 32;

/// A finished request: its id and its verdict.
type Completion = (ReqId, Result<ParOutcome, MachineError>);

/// Identifies one submitted request within a serving session. Sequential
/// from 0 in submission order; carried into per-invocation errors
/// (e.g. [`MachineError::TagSpaceExhausted`]) and returned by
/// [`ServeHandle::collect`] so out-of-order completions can be matched
/// to their submissions.
pub type ReqId = u64;

/// Shard of the rendezvous slot of `(op, inv, tag)`: the operator
/// scrambled by a golden-ratio multiply, plus the invocation-local tag,
/// plus the invocation index times an odd constant. Consecutive
/// iteration tags of one operator land on consecutive shards, and
/// concurrent invocations of the same `(operator, tag)` spread instead
/// of stacking on one shard (the constant is odd, hence coprime with
/// the power-of-two shard count). Invocation 0 — every solo run —
/// shards by operator and tag alone.
#[inline]
fn shard_of(op: OpId, inv: u32, tag: TagId) -> usize {
    op.0.wrapping_mul(0x9e37_79b1)
        .wrapping_add(tag.0)
        .wrapping_add(inv.wrapping_mul(0x85eb_ca6b)) as usize
        % SLOT_SHARDS
}

/// A token in flight, extended with the invocation index that scopes its
/// tag.
#[derive(Clone, Copy, Debug)]
struct Token {
    to: Port,
    tag: TagId,
    inv: u32,
    value: i64,
}

/// The private state of one admitted request, rebuilt on every
/// admission: its memory image, its tag interner (allocating only within
/// the invocation's reserved slice of the tag space) and its counters.
struct InvCore {
    req: ReqId,
    /// The admission slot, carried by every token of the request.
    inv: u32,
    layout: MemLayout,
    mem: ParMemory,
    tags: ParTagTable,
    /// Set once the invocation failed: the lock-free check, read for
    /// every token, that turns its remaining tokens into tombstones.
    failed_flag: AtomicBool,
    counts: InvCounts,
}

/// An invocation's always-on counters and failure record, on cache
/// lines of their own: every worker writes them on every firing, and a
/// field read per token or per memory operation that shared their line
/// would bounce between cores with them.
#[derive(Default)]
#[repr(align(128))]
struct InvCounts {
    end_seen: AtomicBool,
    fired: AtomicU64,
    merged: AtomicU64,
    macro_fires: AtomicU64,
    ops_elided: AtomicU64,
    /// Chaos-injected token drops / duplicates charged to this
    /// invocation.
    drops: AtomicU64,
    dups: AtomicU64,
    /// First failure recorded (see [`InvCore::fail`]).
    failed: Mutex<Option<MachineError>>,
}

impl InvCore {
    /// Record the invocation's first failure and tombstone its remaining
    /// tokens. Neighbors, the shared table and the pool are deliberately
    /// untouched: failure is a per-invocation event.
    fn fail(&self, e: MachineError) {
        lock(&self.counts.failed).get_or_insert(e);
        self.failed_flag.store(true, Ordering::SeqCst);
    }
}

/// One admission slot.
#[derive(Default)]
struct InvSlot {
    /// Private state of the currently admitted request.
    ///
    /// SAFETY (for both `unsafe impl Sync` and every access): ownership
    /// of a slot is sequenced by the admission free-list under the
    /// session state mutex. `core` is written exclusively in
    /// [`Session::submit`], under that mutex, *after* popping the slot
    /// from the free list and *before* injecting any of its tokens (the
    /// scheduler's queue locks give the necessary happens-before edge to
    /// workers); workers only read it while processing a token of this
    /// invocation, which holds `live > 0`; finalization reads it only
    /// after `live` reached zero — i.e. after every such reader finished
    /// — or after the scheduler stopped; and the slot returns to the
    /// free list only after finalization completes.
    core: UnsafeCell<Option<InvCore>>,
    /// An upper bound on the tokens of this invocation that exist
    /// anywhere (queued or being processed), exact between batches (see
    /// [`Session::settle`]). Zero means quiescent — finalize.
    live: AtomicU64,
}

// SAFETY: see the `core` field — all access to the UnsafeCell is
// sequenced by the free-list/live-count protocol documented there; the
// other field is atomic.
unsafe impl Sync for InvSlot {}

impl InvSlot {
    /// The admitted request's private state.
    ///
    /// # Safety
    ///
    /// The caller must hold one of the access rights documented on the
    /// `core` field: a token of this invocation in hand, or exclusive
    /// ownership during admission or finalization.
    unsafe fn core(&self) -> &InvCore {
        (*self.core.get()).as_ref().expect("slot admitted")
    }
}

/// Bookkeeping of the admission window, guarded by one mutex.
#[derive(Default)]
struct ServeState {
    /// Slot indices available for admission.
    free: Vec<u32>,
    /// Finished requests awaiting collection.
    completed: VecDeque<Completion>,
    /// Requests admitted and not yet finalized.
    inflight: usize,
    /// Next request id == requests submitted so far.
    submitted: u64,
    /// Requests collected so far.
    collected: u64,
    completed_ok: u64,
    completed_err: u64,
    peak_inflight: usize,
    /// Set when the scheduler itself was halted (a worker panic that
    /// escaped an invocation, or the watchdog): every inflight request
    /// was failed, and every later submission completes immediately
    /// with this error.
    dead: Option<MachineError>,
}

/// State shared by every worker of one run or session: the compiled
/// graph, the invocation-keyed rendezvous table, the admission slots.
struct Session<'g> {
    cg: &'g CompiledGraph,
    /// How the 32-bit tag word is split between invocation index (high
    /// bits) and per-invocation tag (low bits).
    split: TagSplit,
    /// Per-invocation tag cap: the smaller of the split's slice and the
    /// configured cap.
    tag_cap: u32,
    /// Per-invocation firing budget.
    fuel: u64,
    /// Fault injection for panics/drops/dups. Boxed so an ordinary run
    /// pays one null check per firing / per emit and the chaos machinery
    /// stays off the hot cache lines.
    chaos: Option<Box<ChaosState>>,
    /// A solo run: its one invocation is not named in errors (there is
    /// no request to attribute them to) and it may keep a trace ring.
    solo: bool,
    /// Optional bounded fire-event ring (solo runs only); `None` costs
    /// one branch per firing.
    trace: Option<TraceRing>,
    /// Rendezvous slots shared by all invocations, keyed by
    /// [`key_inv`], sharded by [`shard_of`] on the key's parts.
    slots: Vec<Mutex<FxHashMap<u64, SlotVals>>>,
    /// Currently occupied rendezvous slots (whole table), the peak, and
    /// per-shard high-water marks.
    occupancy: Occupancy,
    slot_high: Vec<AtomicU64>,
    inv: Vec<InvSlot>,
    state: Mutex<ServeState>,
    /// Signaled when a slot frees (admission backpressure).
    submit_cv: Condvar,
    /// Signaled when a request completes (collect / teardown).
    done_cv: Condvar,
}

impl<'g> Session<'g> {
    /// State for `max_inflight` invocation slots over `n_workers`
    /// workers; `solo` is a single-invocation run (`max_inflight == 1`).
    fn new(
        cg: &'g CompiledGraph,
        n_workers: usize,
        max_inflight: usize,
        cfg: &ParConfig,
        solo: bool,
    ) -> Session<'g> {
        let split = TagSplit::for_inflight(max_inflight);
        Session {
            cg,
            split,
            tag_cap: split.tag_cap().min(cfg.tag_cap),
            fuel: cfg.fuel,
            chaos: cfg.chaos.map(|c| Box::new(ChaosState::new(c, n_workers))),
            solo,
            trace: cfg.trace_capacity.filter(|_| solo).map(TraceRing::new),
            slots: std::iter::repeat_with(|| Mutex::new(FxHashMap::default()))
                .take(SLOT_SHARDS)
                .collect(),
            occupancy: Occupancy::default(),
            slot_high: (0..SLOT_SHARDS).map(|_| AtomicU64::new(0)).collect(),
            inv: (0..max_inflight).map(|_| InvSlot::default()).collect(),
            state: Mutex::new(ServeState {
                free: (0..max_inflight as u32).rev().collect(),
                ..ServeState::default()
            }),
            submit_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }

    // -----------------------------------------------------------------
    // Admission and completion
    // -----------------------------------------------------------------

    /// Admit one invocation over `layout`, blocking while the admission
    /// window is full. On a dead session the request completes
    /// immediately with the session's error.
    ///
    /// The request's private state is built before the state lock is
    /// taken and installed while it is held: whoever takes the lock next
    /// — a finalization, or the session's death — sees the slot either
    /// free or fully admitted.
    fn submit(&self, sched: &Scheduler<Token>, layout: &MemLayout) -> ReqId {
        let mut core = InvCore {
            req: 0,
            inv: 0,
            layout: layout.clone(),
            mem: ParMemory::new(layout),
            tags: ParTagTable::new(self.tag_cap),
            failed_flag: AtomicBool::new(false),
            counts: InvCounts::default(),
        };
        let seeds = self.cg.dests(self.cg.start(), 0);
        let mut st = lock(&self.state);
        let (req, inv) = loop {
            if let Some(err) = st.dead.clone() {
                let req = st.submitted;
                st.submitted += 1;
                st.completed.push_back((req, Err(err)));
                st.completed_err += 1;
                drop(st);
                self.done_cv.notify_all();
                return req;
            }
            if let Some(inv) = st.free.pop() {
                break (st.submitted, inv);
            }
            st = self.submit_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        };
        st.submitted += 1;
        st.inflight += 1;
        st.peak_inflight = st.peak_inflight.max(st.inflight);
        (core.req, core.inv) = (req, inv);
        if !self.solo {
            core.tags.invocation = Some(req);
        }
        let slot = &self.inv[inv as usize];
        // SAFETY: exclusive slot ownership (popped from the free list,
        // no tokens injected yet); see the `core` field protocol.
        unsafe {
            *slot.core.get() = Some(core);
        }
        // Live count covers the seeds *before* they become visible to
        // workers, so a fast drain cannot underflow it.
        slot.live.store(seeds.len() as u64, Ordering::SeqCst);
        if seeds.is_empty() {
            // A graph whose start feeds nothing can never reach End;
            // classify at once.
            let done = self.verdict(inv, None);
            self.complete(&mut st, done);
            st.free.push(inv);
            drop(st);
            self.submit_cv.notify_one();
            self.done_cv.notify_all();
            return req;
        }
        drop(st);
        sched.inject_batch(seeds.iter().map(|&to| Token {
            to,
            tag: TagId::ROOT,
            inv,
            value: 0,
        }));
        req
    }

    /// `consumed` tokens of `inv` finished processing and emitted
    /// `emitted` tokens, which are not yet visible to any other worker
    /// (a batch's pushes reach the queues only after the batch). One
    /// atomic step moves the live count by the difference; if it reaches
    /// zero, no token of the invocation exists anywhere and this thread
    /// finalizes it.
    fn settle(&self, inv: u32, emitted: u64, consumed: u64) {
        let live = &self.inv[inv as usize].live;
        if emitted > consumed {
            live.fetch_add(emitted - consumed, Ordering::SeqCst);
        } else if emitted < consumed {
            let n = consumed - emitted;
            if live.fetch_sub(n, Ordering::SeqCst) == n {
                self.finalize(inv);
            }
        }
    }

    /// Purge every rendezvous entry of `inv` from the shared table,
    /// returning how many were parked and their rendered descriptions
    /// (sorted, truncated to 10 — the deadlock report). Safe only when
    /// no thread can be inserting for this invocation: at quiescence, or
    /// after the scheduler stopped — either way every insert of `inv`
    /// is visible here, so an empty table needs no scan (the common
    /// case: a clean run leaves nothing parked).
    fn purge(&self, inv: u32, core: &InvCore) -> (u64, Vec<String>) {
        let mut parked = 0u64;
        let mut pending: Vec<String> = Vec::new();
        if self.occupancy.now.load(Ordering::SeqCst) == 0 {
            return (0, pending);
        }
        for shard in &self.slots {
            let mut shard = lock(shard);
            shard.retain(|&k, vals| {
                let (op, k_inv, tag) = unkey_inv(k, self.split);
                if k_inv != inv {
                    return true;
                }
                parked += 1;
                if pending.len() < 32 {
                    pending.push(format!(
                        "{} {op:?} tag {} waiting (filled ports {:?})",
                        self.cg.mnemonic(op),
                        core.tags.render(tag),
                        vals.filled_ports(),
                    ));
                }
                false
            });
        }
        if parked > 0 {
            self.occupancy.now.fetch_sub(parked, Ordering::Relaxed);
        }
        pending.sort();
        pending.truncate(10);
        (parked, pending)
    }

    /// Classify invocation `inv`, either at quiescence (`halt == None`)
    /// or after the scheduler was halted under it (`halt` is the
    /// watchdog timeout or an escaped worker panic). Precedence:
    ///
    ///  1. a recorded `MachineError` (collision, tag fault, memory fault,
    ///     fuel, tag exhaustion, a contained operator panic) is the root
    ///     cause;
    ///  2. an escaped worker panic;
    ///  3. injected token drops — deterministically a `TokenLeak`: a
    ///     vanished token must never masquerade as anything else;
    ///  4. the watchdog;
    ///  5. quiescence without `End` — a deadlock naming the pending
    ///     slots;
    ///  6. success. Rendezvous halves still parked after `End` (a
    ///     duplicated token whose twin already fired) are purged and, as
    ///     in the simulator, do not fail the run.
    fn verdict(&self, inv: u32, halt: Option<MachineError>) -> Completion {
        // SAFETY: live == 0 or the scheduler stopped — no reader left.
        let core = unsafe { self.inv[inv as usize].core() };
        let c = &core.counts;
        let (parked, pending) = self.purge(inv, core);
        let drops = c.drops.load(Ordering::Relaxed);
        let result = match (lock(&c.failed).take(), halt) {
            (Some(e), _) | (None, Some(e @ MachineError::WorkerPanicked { .. })) => Err(e),
            _ if drops > 0 => Err(MachineError::TokenLeak {
                leftover: drops + parked,
            }),
            (None, Some(e)) => Err(e),
            (None, None) if !c.end_seen.load(Ordering::SeqCst) => Err(MachineError::Deadlock {
                pending: if pending.is_empty() {
                    vec!["no partially-filled rendezvous slots: tokens drained without reaching End"
                        .to_owned()]
                } else {
                    pending
                },
            }),
            (None, None) => Ok(ParOutcome {
                memory: core.mem.cells_snapshot(),
                ist_memory: core.mem.ist_snapshot(),
                fired: c.fired.load(Ordering::SeqCst),
                metrics: inv_metrics(core),
            }),
        };
        (core.req, result)
    }

    /// Queue a verdict for collection and retire its request from the
    /// admission window's count.
    fn complete(&self, st: &mut ServeState, done: Completion) {
        if done.1.is_ok() {
            st.completed_ok += 1;
        } else {
            st.completed_err += 1;
        }
        st.completed.push_back(done);
        st.inflight -= 1;
    }

    /// The quiescent invocation's verdict goes to the completion queue
    /// and its slot back to the free list.
    fn finalize(&self, inv: u32) {
        let done = self.verdict(inv, None);
        let mut st = lock(&self.state);
        self.complete(&mut st, done);
        st.free.push(inv);
        drop(st);
        // A solo run has no submitter or collector to wake.
        if !self.solo {
            self.submit_cv.notify_one();
            self.done_cv.notify_all();
        }
    }

    /// The scheduler stopped under live invocations (escaped worker
    /// panic or watchdog): classify every one still admitted with `err`
    /// as the halt, and poison future submissions. The slots are not
    /// reused — their tokens may still sit in the dead queues.
    fn session_death(&self, err: MachineError) {
        let mut st = lock(&self.state);
        st.dead = Some(err.clone());
        let busy: Vec<u32> =
            (0..self.inv.len() as u32).filter(|i| !st.free.contains(i)).collect();
        for inv in busy {
            let done = self.verdict(inv, Some(err.clone()));
            self.complete(&mut st, done);
        }
        drop(st);
        self.submit_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Faults injected over the whole run or session.
    fn chaos_tallies(&self, workers: &[WorkerStats]) -> ChaosTallies {
        let count = |f: fn(&ChaosState) -> &AtomicU64| {
            self.chaos.as_deref().map_or(0, |c| f(c).load(Ordering::Relaxed))
        };
        ChaosTallies {
            delays: workers.iter().map(|w| w.chaos_delays).sum(),
            forced_steals: workers.iter().map(|w| w.chaos_forced_steals).sum(),
            panics: count(|c| &c.panics),
            drops: count(|c| &c.drops),
            dups: count(|c| &c.dups),
        }
    }

    // -----------------------------------------------------------------
    // Token processing
    // -----------------------------------------------------------------

    /// The scheduler body: process a batch, settling the live counts
    /// once per run of same-invocation tokens (the whole batch on a solo
    /// run) instead of once per token and per emission. Settling late is
    /// safe: the run's consumed tokens stay counted until then, so the
    /// count can only overstate the tokens that exist, and the run's
    /// emissions are counted before the batch flush makes them visible.
    fn run_batch(&self, ctx: &Ctx<Token>, batch: &mut Vec<Token>) {
        let b = Batch {
            ctx,
            emitted: Cell::new(0),
        };
        let mut run: Option<(u32, u64)> = None;
        for t in batch.drain(..) {
            match &mut run {
                Some((inv, n)) if *inv == t.inv => *n += 1,
                _ => {
                    if let Some((inv, n)) = run.replace((t.inv, 1)) {
                        self.settle(inv, b.emitted.replace(0), n);
                    }
                }
            }
            // Catch per token, not per batch: an operator panic fails
            // its own invocation and the batch (other invocations'
            // tokens included) continues.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.process(&b, t))) {
                // SAFETY: the token still holds its invocation live.
                unsafe { self.inv[t.inv as usize].core() }.fail(MachineError::WorkerPanicked {
                    worker: ctx.worker(),
                    payload: render_panic(&*payload),
                });
            }
        }
        if let Some((inv, n)) = run {
            self.settle(inv, b.emitted.replace(0), n);
        }
    }

    fn process(&self, b: &Batch<'_>, t: Token) {
        // SAFETY: this token holds the invocation live (> 0) until the
        // batch loop settles its run.
        let core = unsafe { self.inv[t.inv as usize].core() };
        if core.failed_flag.load(Ordering::SeqCst) {
            // Tombstone: the invocation already failed; its tokens drain
            // without firing so the slot can be reclaimed and reused.
            return;
        }
        let (op, port, value) = (t.to.op, t.to.port as usize, t.value);
        let desc = self.cg.desc(op);
        let imms = self.cg.imms(op);
        match desc.kind {
            CKind::LoopSwitch(loop_id) => self.loop_switch(b, core, t, loop_id),
            _ if desc.merge_like() => {
                self.fire(b, core, op, t.tag, FireInputs::Single { port, value })
            }
            _ if desc.live <= 1 => {
                // Single live input: fires immediately, values assembled
                // in an inline stack buffer.
                let vals = FireVals::from_imms(imms, port, value, desc.is_hot());
                self.fire(b, core, op, t.tag, FireInputs::Full(vals.as_slice()))
            }
            _ => self.join(b, core, t, t.tag, port, || SlotVals::new(imms, desc.is_hot())),
        }
    }

    /// Deposit `t`'s value at index `idx` of the rendezvous slot of
    /// `(t.to.op, invocation, tag)` — created with `mk` on first
    /// arrival — and fire the operator if that completed the slot. An
    /// incomplete deposit counts as `merged`; an index already filled is
    /// a token collision.
    fn join(
        &self,
        b: &Batch<'_>,
        core: &InvCore,
        t: Token,
        tag: TagId,
        idx: usize,
        mk: impl FnOnce() -> SlotVals,
    ) {
        let op = t.to.op;
        let k = key_inv(op, self.split, t.inv, tag);
        let shard_idx = shard_of(op, t.inv, tag);
        let mut shard = lock(&self.slots[shard_idx]);
        let mut inserted = false;
        let entry = shard.entry(k).or_insert_with(|| {
            inserted = true;
            mk()
        });
        if entry.is_filled(idx) {
            drop(shard);
            let (port, tag) = (t.to.port as usize, core.tags.render(tag));
            return core.fail(MachineError::TokenCollision { op, port, tag });
        }
        entry.set(idx, t.value);
        let complete = entry.is_complete();
        if inserted {
            // Waiting-matching pressure: whole-table peak plus a
            // per-shard high-water mark (exact under the shard lock).
            let occupied = self.occupancy.now.fetch_add(1, Ordering::Relaxed) + 1;
            self.occupancy.peak.fetch_max(occupied, Ordering::Relaxed);
            self.slot_high[shard_idx].fetch_max(shard.len() as u64, Ordering::Relaxed);
        }
        if !complete {
            drop(shard);
            core.counts.merged.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let vals = shard.remove(&k).expect("present").into_vals();
        drop(shard);
        self.occupancy.now.fetch_sub(1, Ordering::Relaxed);
        self.fire(b, core, op, tag, FireInputs::Full(vals.as_slice()));
    }

    /// A token of a fused loop-entry/switch pair: on port 0 or 1 it is
    /// retagged exactly as the fused loop-entry would retag it (outside
    /// → iteration 0, backedge → next iteration), then joins the
    /// predicate in a two-value slot keyed by the *iteration* tag. The
    /// predicate (port 2) already carries that tag and fills the other
    /// half. The incomplete deposit counts as `merged` — the same wait
    /// the unfused switch's rendezvous recorded — so fused and unfused
    /// runs agree on `merged` while the loop-entry's separate firing and
    /// output token are elided.
    fn loop_switch(&self, b: &Batch<'_>, core: &InvCore, t: Token, loop_id: LoopId) {
        let slot_tag = match t.to.port {
            0 => core.tags.child(t.tag, loop_id, 0),
            1 => match core.tags.info(t.tag) {
                Some((p, l, i)) if l == loop_id => core.tags.child(p, loop_id, i + 1),
                other => Err(MachineError::TagMismatch {
                    op: t.to.op,
                    detail: format!("backedge token tagged {other:?}, expected loop {loop_id:?}"),
                }),
            },
            _ => Ok(t.tag),
        };
        match slot_tag {
            Ok(tag) => self.join(b, core, t, tag, usize::from(t.to.port > 1), SlotVals::pair),
            Err(e) => core.fail(e),
        }
    }

    /// Fire one operator through the shared kernel ([`fire_op`]) with
    /// this engine's effects. First the admission hooks: spend one unit
    /// of the *invocation's* fuel (recording
    /// [`MachineError::FuelExhausted`] and skipping the firing once the
    /// budget is gone), under chaos maybe panic in the operator's stead
    /// (the panic is caught per token and fails only this invocation),
    /// and record the firing in the trace ring. A kernel error fails the
    /// invocation.
    fn fire(&self, b: &Batch<'_>, core: &InvCore, op: OpId, tag: TagId, inputs: FireInputs<'_>) {
        if core.counts.fired.fetch_add(1, Ordering::Relaxed) >= self.fuel {
            return core.fail(MachineError::FuelExhausted);
        }
        if let Some(ch) = &self.chaos {
            if ch.cfg.panic_prob > 0.0 && lock(&ch.rngs[b.ctx.worker()]).chance(ch.cfg.panic_prob) {
                ch.panics.fetch_add(1, Ordering::Relaxed);
                panic!("chaos: injected operator panic at {op:?}");
            }
        }
        if let Some(ring) = &self.trace {
            ring.push(b.ctx.worker(), op, tag);
        }
        let mut eng = InvEngine { sh: self, b, core };
        if let Err(e) = fire_op(self.cg, op, tag, inputs, &mut eng) {
            core.fail(e);
        }
    }
}

/// The invocation's own counters. Scheduler-level quantities (the
/// per-worker stats, the shared table's occupancy) are left empty: the
/// workers and the table are shared across invocations, so a session
/// reports them once in [`ServeStats`] and a solo run fills them in
/// ([`run_threaded_compiled_pooled_with`]).
fn inv_metrics(core: &InvCore) -> ParMetrics {
    let c = &core.counts;
    let merged = c.merged.load(Ordering::Relaxed);
    ParMetrics {
        // Every processed token of a live invocation either fired an
        // operator or merged into a slot.
        tokens_processed: c.fired.load(Ordering::Relaxed) + merged,
        merged,
        tags_created: core.tags.created(),
        deferred_reads: core.mem.deferred_reads.load(Ordering::Relaxed),
        deferred_read_peak: core.mem.deferred_peak.load(Ordering::Relaxed),
        macro_fires: c.macro_fires.load(Ordering::Relaxed),
        ops_elided: c.ops_elided.load(Ordering::Relaxed),
        chaos: ChaosTallies {
            drops: c.drops.load(Ordering::Relaxed),
            dups: c.dups.load(Ordering::Relaxed),
            ..ChaosTallies::default()
        },
        ..ParMetrics::default()
    }
}

/// Occupied rendezvous slots across the whole table and their peak, on
/// a cache line of their own for the reason given on [`InvCounts`]:
/// every slot insert and removal writes them.
#[derive(Default)]
#[repr(align(128))]
struct Occupancy {
    now: AtomicU64,
    peak: AtomicU64,
}

/// A worker's view of the batch it is processing: the scheduler context
/// and the tokens pushed since the live count was last settled
/// ([`Session::settle`]).
struct Batch<'a> {
    ctx: &'a Ctx<Token>,
    emitted: Cell<u64>,
}

impl Batch<'_> {
    /// Push one token; it becomes visible when the batch is flushed.
    fn push(&self, t: Token) {
        self.emitted.set(self.emitted.get() + 1);
        self.ctx.push(t);
    }
}

/// The threaded side of the shared firing kernel: operator semantics
/// live in [`fire_op`], once, for both backends; this engine supplies
/// the concurrent effects — emission raises the invocation's live count,
/// memory and tags are the invocation's own, halt marks only this
/// invocation's End.
struct InvEngine<'a, 'b, 'g> {
    sh: &'a Session<'g>,
    b: &'a Batch<'b>,
    core: &'a InvCore,
}

impl InvEngine<'_, '_, '_> {
    /// [`InvEngine::emit`] with per-destination fault injection: each
    /// outgoing token may be dropped (vanishes — surfaced as the
    /// emitting invocation's [`MachineError::TokenLeak`]) or duplicated.
    /// Duplicates are only injected toward ops where the waiting-matching
    /// store can detect them (`dup_ok`).
    #[cold]
    #[inline(never)]
    fn emit_chaos(&self, op: OpId, out_port: usize, value: i64, tag: TagId) {
        let (sh, b) = (self.sh, self.b);
        let ch = sh.chaos.as_deref().expect("checked by emit");
        let (inv, c) = (self.core.inv, &self.core.counts);
        for &to in sh.cg.dests(op, out_port) {
            let mut rng = lock(&ch.rngs[b.ctx.worker()]);
            if ch.cfg.drop_prob > 0.0 && rng.chance(ch.cfg.drop_prob) {
                ch.drops.fetch_add(1, Ordering::Relaxed);
                c.drops.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if ch.cfg.dup_prob > 0.0 && sh.cg.desc(to.op).dup_ok() && rng.chance(ch.cfg.dup_prob) {
                ch.dups.fetch_add(1, Ordering::Relaxed);
                c.dups.fetch_add(1, Ordering::Relaxed);
                b.push(Token { to, tag, inv, value });
            }
            b.push(Token { to, tag, inv, value });
        }
    }
}

impl Engine for InvEngine<'_, '_, '_> {
    /// Send one output token to every destination of `(op, out_port)`.
    fn emit(&mut self, op: OpId, out_port: usize, value: i64, tag: TagId) {
        // One null check per emit call; the per-destination fault draws
        // live in the out-of-line chaos variant.
        if self.sh.chaos.is_some() {
            return self.emit_chaos(op, out_port, value, tag);
        }
        let inv = self.core.inv;
        for &to in self.sh.cg.dests(op, out_port) {
            self.b.push(Token { to, tag, inv, value });
        }
    }

    fn halt(&mut self) {
        // End fired for *this* invocation: mark it and keep draining —
        // the invocation finalizes when its last token is processed, so
        // nothing is dropped, and neighbors keep running.
        self.core.counts.end_seen.store(true, Ordering::SeqCst);
    }

    fn tag_child(
        &mut self,
        parent: TagId,
        loop_id: LoopId,
        iter: u32,
    ) -> Result<TagId, MachineError> {
        self.core.tags.child(parent, loop_id, iter)
    }

    fn tag_info(&self, tag: TagId) -> Option<(TagId, LoopId, u32)> {
        self.core.tags.info(tag)
    }

    fn read_scalar(&mut self, var: VarId) -> i64 {
        self.core.mem.read_scalar(&self.core.layout, var)
    }

    fn write_scalar(&mut self, var: VarId, value: i64) {
        self.core.mem.write_scalar(&self.core.layout, var, value)
    }

    fn read_element(&mut self, var: VarId, index: i64) -> Result<i64, MemError> {
        self.core.mem.read_element(&self.core.layout, var, index)
    }

    fn write_element(&mut self, var: VarId, index: i64, value: i64) -> Result<(), MemError> {
        self.core.mem.write_element(&self.core.layout, var, index, value)
    }

    fn ist_read(
        &mut self,
        var: VarId,
        index: i64,
        op: OpId,
        tag: TagId,
    ) -> Result<Option<i64>, MemError> {
        // Deferral accounting happens inside ParMemory.
        self.core.mem.ist_read(&self.core.layout, var, index, (op, tag))
    }

    fn ist_write(
        &mut self,
        var: VarId,
        index: i64,
        value: i64,
    ) -> Result<Vec<DeferredRead<(OpId, TagId)>>, MemError> {
        self.core.mem.ist_write(&self.core.layout, var, index, value)
    }

    fn macro_fired(&mut self, elided: u64) {
        let c = &self.core.counts;
        c.macro_fires.fetch_add(1, Ordering::Relaxed);
        c.ops_elided.fetch_add(elided, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// The drivers
// ---------------------------------------------------------------------

/// Run the scheduler over `sh` on `pool` until it drains (a solo run) or
/// is released (a session), bounded by the optional watchdog. The
/// calling thread, blocked until the workers finish, keeps the deadline
/// and halts the scheduler itself if the workers are still running when
/// it passes ([`Scheduler::run_in`]). If the scheduler was halted — by
/// the watchdog or by a panic escaping the per-token containment —
/// every invocation still admitted is classified with that halt. A
/// watchdog firing at the completion instant fails nobody: an
/// invocation that already finalized keeps its verdict.
fn drive(
    sh: &Session<'_>,
    sched: &Scheduler<Token>,
    pool: &ExecutorPool,
    watchdog: Option<Duration>,
) -> Outcome {
    let out = sched.run_in(&pool.pool, watchdog, |ctx, batch| sh.run_batch(ctx, batch));
    if out.halted {
        let err = match out.panicked.clone() {
            Some((worker, payload)) => MachineError::WorkerPanicked { worker, payload },
            None => MachineError::WatchdogTimeout {
                millis: watchdog.map_or(0, |d| d.as_millis() as u64),
            },
        };
        sh.session_death(err);
    }
    out
}

/// A solo run: one invocation of an already-[`compile`]d graph over
/// `layout` on a pre-spawned [`ExecutorPool`] (the worker count is the
/// pool's width), with limits, fault injection and the optional trace
/// ring from `cfg`. The scheduler runs from the calling thread with no
/// driver thread and no hold, and drains when the invocation's last
/// token is processed.
///
/// Returns the verdict, the run's [`ParMetrics`] on *every* path — on
/// success they equal `outcome.metrics`; on failure they are what the
/// workers did up to the end, per-worker scheduler counters and the
/// table's occupancy included, which is how a
/// [`MachineError::WorkerPanicked`] run still reports its injected-fault
/// tallies — and the trace ring's events (empty unless
/// `cfg.trace_capacity` asks for a ring; returned on the failure path
/// too, which is what it is for). The pool survives contained worker
/// panics and stays usable for subsequent runs.
///
/// [`compile`]: crate::compiled::compile
pub fn run_threaded_compiled_pooled_with(
    cg: &CompiledGraph,
    layout: &MemLayout,
    pool: &ExecutorPool,
    cfg: &ParConfig,
) -> (Result<ParOutcome, MachineError>, ParMetrics, Vec<FireEvent>) {
    let n_workers = pool.workers();
    let sh = Session::new(cg, n_workers, 1, cfg, true);
    let sched: Scheduler<Token> = Scheduler::new(n_workers).with_chaos(cfg.chaos);
    sh.submit(&sched, layout);
    let out = drive(&sh, &sched, pool, cfg.watchdog);
    let (_, result) = lock(&sh.state)
        .completed
        .pop_front()
        .expect("a drained or halted run has classified its invocation");
    // SAFETY: the scheduler stopped; nothing else reads the slot.
    let core = unsafe { sh.inv[0].core() };
    let metrics = ParMetrics {
        max_pending_slots: sh.occupancy.peak.load(Ordering::Relaxed),
        slot_shard_high_water: sh
            .slot_high
            .iter()
            .map(|h| h.load(Ordering::Relaxed))
            .collect(),
        chaos: sh.chaos_tallies(&out.workers),
        workers: out.workers,
        ..inv_metrics(core)
    };
    let trace = sh.trace.as_ref().map_or_else(Vec::new, |ring| {
        ring.events(|tag| core.tags.render(tag))
    });
    let result = result.map(|out| ParOutcome {
        metrics: metrics.clone(),
        ..out
    });
    (result, metrics, trace)
}

/// The submission side of a serving session, handed to the closure of
/// [`serve`]. Cloneable by shared reference across threads: `submit` and
/// `collect` are both `&self`.
pub struct ServeHandle<'a, 'g> {
    sh: &'a Session<'g>,
    sched: &'a Scheduler<Token>,
}

impl ServeHandle<'_, '_> {
    /// Admit one invocation of the session's graph over `layout`,
    /// blocking while the admission window (`max_inflight`) is full —
    /// the session's backpressure. Returns the request id; the result is
    /// retrieved with [`ServeHandle::collect`]. On a dead session the
    /// request completes immediately with the session's error.
    pub fn submit(&self, layout: &MemLayout) -> ReqId {
        self.sh.submit(self.sched, layout)
    }

    /// Wait for the next finished request (any invocation — completions
    /// are delivered in finish order, not submission order) and return
    /// its id and result.
    ///
    /// # Panics
    ///
    /// Panics if nothing is outstanding: every submitted request was
    /// already collected.
    pub fn collect(&self) -> (ReqId, Result<ParOutcome, MachineError>) {
        let sh = self.sh;
        let mut st = lock(&sh.state);
        loop {
            if let Some(done) = st.completed.pop_front() {
                st.collected += 1;
                return done;
            }
            assert!(
                st.submitted > st.collected,
                "collect called with no outstanding requests"
            );
            st = sh.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Requests submitted and not yet collected.
    pub fn outstanding(&self) -> usize {
        let st = lock(&self.sh.state);
        (st.submitted - st.collected) as usize
    }
}

/// Run a serving session: up to `max_inflight` concurrent invocations of
/// `cg` multiplexed onto `pool`'s workers. The closure `f` drives the
/// session through its [`ServeHandle`] — submitting requests, collecting
/// results — from the calling thread (and may hand the handle to other
/// threads; both methods take `&self`), while a driver thread keeps the
/// scheduler running. When `f` returns, the session waits for every
/// admitted request to finish, shuts the workers down, and returns `f`'s
/// value with the session-level [`ServeStats`].
///
/// `cfg` is applied *per invocation* — `fuel` and `tag_cap` bound each
/// request individually (the tag cap is additionally clamped to the
/// invocation's reserved slice of the tag space) — except `watchdog`,
/// which bounds the whole session, and `chaos`, which faults the shared
/// workers. `trace_capacity` is ignored: the trace ring is a solo-run
/// debugging aid.
///
/// `max_inflight` is clamped to `1..=65536`; the tag space is split as
/// `ceil(log2(max_inflight))` invocation bits, leaving each request
/// `2^(32-bits) - 1` tags ([`TagSplit::for_inflight`]).
pub fn serve<R>(
    cg: &CompiledGraph,
    pool: &ExecutorPool,
    max_inflight: usize,
    cfg: &ParConfig,
    f: impl FnOnce(&ServeHandle<'_, '_>) -> R,
) -> (R, ServeStats) {
    let max_inflight = max_inflight.clamp(1, 1 << 16);
    let n_workers = pool.workers();
    let sh = Session::new(cg, n_workers, max_inflight, cfg, false);
    let sched: Scheduler<Token> = Scheduler::new(n_workers).with_chaos(cfg.chaos);
    // Keep the scheduler's token population artificially nonzero for the
    // whole session: workers park between requests instead of exiting,
    // and the drain-to-zero shutdown only triggers at teardown's
    // `release`.
    sched.hold();

    let (ret, outcome) = std::thread::scope(|scope| {
        let driver = scope.spawn(|| drive(&sh, &sched, pool, cfg.watchdog));
        let handle = ServeHandle {
            sh: &sh,
            sched: &sched,
        };
        let ret = catch_unwind(AssertUnwindSafe(|| f(&handle)));

        // Teardown: wait for every admitted request to finalize (a dead
        // session finalizes them all in `session_death`), then drop the
        // hold so the worker population drains to zero and the epoch
        // ends.
        {
            let mut st = lock(&sh.state);
            while st.inflight > 0 {
                st = sh.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        sched.release();
        let outcome = driver.join().expect("serve driver does not panic");
        match ret {
            Ok(ret) => (ret, outcome),
            Err(payload) => resume_unwind(payload),
        }
    });

    let st = lock(&sh.state);
    let stats = ServeStats {
        requests: st.submitted,
        completed_ok: st.completed_ok,
        failed: st.completed_err,
        peak_inflight: st.peak_inflight as u64,
        tokens_processed: outcome.processed,
        max_pending_slots: sh.occupancy.peak.load(Ordering::Relaxed),
        chaos: sh.chaos_tallies(&outcome.workers),
        workers: outcome.workers,
    };
    drop(st);
    (ret, stats)
}

/// Submit `requests` invocations of `cg` over `layout` with at most
/// `max_inflight` concurrent, and return their results in submission
/// order plus the session stats. The convenience wrapper around
/// [`serve`] used by the CLI, the benches and the equivalence tests.
pub fn run_concurrent(
    cg: &CompiledGraph,
    layout: &MemLayout,
    pool: &ExecutorPool,
    max_inflight: usize,
    cfg: &ParConfig,
    requests: usize,
) -> (Vec<Result<ParOutcome, MachineError>>, ServeStats) {
    serve(cg, pool, max_inflight, cfg, |h| {
        let mut results: Vec<Option<Result<ParOutcome, MachineError>>> =
            (0..requests).map(|_| None).collect();
        for _ in 0..requests {
            h.submit(layout);
        }
        for _ in 0..requests {
            let (req, r) = h.collect();
            results[req as usize] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every request completes exactly once"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::compile;
    use crate::exec::{run, MachineConfig};
    use crate::parallel::run_threaded;
    use crate::parallel::tests::{small_graph, stuck_graph};

    #[test]
    fn concurrent_requests_match_the_simulator() {
        let (g, layout) = small_graph();
        let sim = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let cg = compile(&g).unwrap();
        for workers in [1, 2, 4] {
            let pool = ExecutorPool::new(workers);
            for inflight in [1, 3, 8] {
                let (results, stats) =
                    run_concurrent(&cg, &layout, &pool, inflight, &ParConfig::default(), 8);
                assert_eq!(results.len(), 8);
                for (i, r) in results.iter().enumerate() {
                    let out = r.as_ref().unwrap_or_else(|e| {
                        panic!("request {i} failed (workers={workers} inflight={inflight}): {e:?}")
                    });
                    assert_eq!(out.memory, sim.memory, "request {i}");
                    assert_eq!(out.fired, sim.stats.fired, "request {i}");
                    let m = &out.metrics;
                    assert_eq!(
                        m.tokens_processed,
                        out.fired + m.merged,
                        "per-invocation accounting, request {i}"
                    );
                }
                assert_eq!(stats.requests, 8);
                assert_eq!(stats.completed_ok, 8);
                assert_eq!(stats.failed, 0);
                assert!(stats.peak_inflight as usize <= inflight.clamp(1, 1 << 16));
                assert_eq!(stats.workers.len(), workers);
            }
        }
    }

    #[test]
    fn backpressure_blocks_at_the_admission_window() {
        let (g, layout) = small_graph();
        let cg = compile(&g).unwrap();
        let pool = ExecutorPool::new(2);
        // Window of 1: 16 submissions must still all complete (each
        // submit blocks until the previous request finalizes).
        let (results, stats) =
            run_concurrent(&cg, &layout, &pool, 1, &ParConfig::default(), 16);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(stats.peak_inflight, 1);
    }

    #[test]
    fn a_failing_invocation_reports_and_the_session_continues() {
        // Every request of this graph deadlocks; the session must hand
        // back 6 typed errors, stay alive throughout, and leave the pool
        // reusable for a clean graph afterwards.
        let (g, layout) = stuck_graph();
        let cg = compile(&g).unwrap();
        let pool = ExecutorPool::new(2);
        let (results, stats) = run_concurrent(&cg, &layout, &pool, 4, &ParConfig::default(), 6);
        assert_eq!(stats.failed, 6);
        for r in &results {
            let Err(MachineError::Deadlock { pending }) = r else {
                panic!("expected per-request deadlock, got {r:?}");
            };
            assert!(pending[0].contains("synch2"), "{pending:?}");
        }
        // Same pool, different graph, clean serve session.
        let (g2, layout2) = small_graph();
        let cg2 = compile(&g2).unwrap();
        let sim = run(&g2, &layout2, MachineConfig::unbounded()).unwrap();
        let (results2, _) =
            run_concurrent(&cg2, &layout2, &pool, 4, &ParConfig::default(), 4);
        for r in results2 {
            assert_eq!(r.unwrap().memory, sim.memory);
        }
    }

    #[test]
    fn per_invocation_fuel_names_no_neighbor() {
        let (g, layout) = small_graph();
        let cg = compile(&g).unwrap();
        let solo = run_threaded(&g, &layout, 1).unwrap();
        let pool = ExecutorPool::new(2);
        // Fuel one below the graph's firing count: every request runs
        // out individually; the session survives all of them.
        let cfg = ParConfig {
            fuel: solo.fired - 1,
            ..ParConfig::default()
        };
        let (results, stats) = run_concurrent(&cg, &layout, &pool, 4, &cfg, 5);
        assert_eq!(stats.failed, 5);
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(MachineError::FuelExhausted))));
        // And with exact fuel, all succeed.
        let cfg = ParConfig {
            fuel: solo.fired,
            ..ParConfig::default()
        };
        let (results, _) = run_concurrent(&cg, &layout, &pool, 4, &cfg, 5);
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn collect_panics_with_nothing_outstanding() {
        let (g, layout) = small_graph();
        let cg = compile(&g).unwrap();
        let pool = ExecutorPool::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            serve(&cg, &pool, 2, &ParConfig::default(), |h| {
                let id = h.submit(&layout);
                let (rid, r) = h.collect();
                assert_eq!(rid, id);
                r.unwrap();
                assert_eq!(h.outstanding(), 0);
                let _ = h.collect(); // nothing outstanding: must panic
            })
        }));
        assert!(caught.is_err(), "second collect must panic");
    }

    #[test]
    fn results_are_delivered_in_finish_order_with_request_ids() {
        let (g, layout) = small_graph();
        let cg = compile(&g).unwrap();
        let pool = ExecutorPool::new(4);
        let ((), stats) = serve(&cg, &pool, 8, &ParConfig::default(), |h| {
            let ids: Vec<ReqId> = (0..8).map(|_| h.submit(&layout)).collect();
            assert_eq!(ids, (0..8).collect::<Vec<_>>(), "sequential request ids");
            let mut seen: Vec<ReqId> = (0..8).map(|_| h.collect().0).collect();
            seen.sort_unstable();
            assert_eq!(seen, ids, "every id exactly once, any order");
        });
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.completed_ok, 8);
    }

    /// Slots that differ only in their invocation must still spread
    /// across shards, and a solo run's shard choice walks consecutive
    /// iteration tags across the table.
    #[test]
    fn slot_shards_disperse_invocation_bits() {
        let shards: std::collections::HashSet<usize> =
            (0..16u32).map(|inv| shard_of(OpId(3), inv, TagId(5))).collect();
        assert!(shards.len() > 8, "only {} shards hit", shards.len());
        let solo: std::collections::HashSet<usize> =
            (0..SLOT_SHARDS as u32).map(|t| shard_of(OpId(3), 0, TagId(t))).collect();
        assert_eq!(solo.len(), SLOT_SHARDS, "consecutive tags fill every shard");
    }
}
