//! The measured phases, driven through the runtime's public submit and
//! `process_next` calls.
//!
//! - An **open-loop** phase submits each scheduled arrival once it is due,
//!   whatever the worker is doing, and times it from the scheduled arrival
//!   to the observed completion, so a stall delays every request queued
//!   behind it and that delay is counted.
//! - A **saturation** phase keeps the predict queue at least two batch
//!   windows deep (a closed loop) and counts completions per second.
//! - A **back-to-back** phase submits the next op as soon as the previous
//!   one completes, so each op's latency is its service time.
//!
//! One thread plays both sides: it submits every arrival that has
//! come due, then calls `process_next` while admitted work is outstanding,
//! and spins until the next due time otherwise. The queueing is the same as
//! with a separate generator thread (arrivals due during a batch wait for
//! that batch either way, and the next call fuses them), and one thread has
//! one clock: every time is read from that thread's CPU clock
//! ([`crate::clock`]), so the schedule, the service and the latencies all
//! pause together while the host takes the CPU away. With a second,
//! generator thread on the other virtual CPU, its stalls set the predict
//! p99 (a generator late by 31 ms at p99 in one run of the MLP workload).
//!
//! The benchmark's own spans (`bench.submit_*`, `bench.process_next`) cost
//! one atomic load each while tracing is off.

use std::collections::HashMap;

use tasfar_nn::tensor::Tensor;
use tasfar_serve::{hash_tensor_bits, CompletionKind, RegistryStats, ServeRuntime, ServedVia};

use crate::clock;
use crate::fixture::{self, Fixture, Walker, BATCH_WINDOW};
use crate::gen::{Arrival, Op, SplitMix64};
use crate::stats::Snapshot;

/// One submitted op.
#[derive(Debug, Clone)]
pub struct OpRec {
    pub op: Op,
    /// Scheduled arrival (ns after the phase start); the submit time in a
    /// saturation phase.
    pub at_ns: u64,
    /// How long after it was due the thread submitted it, not counting
    /// time it spent inside `process_next`.
    pub late_ns: u64,
    /// How long the submit call took.
    pub submit_ns: u64,
    /// The ticket, or `None` when admission rejected the op.
    pub id: Option<u64>,
}

/// One `process_next` call that returned work.
#[derive(Debug, Clone, Copy)]
pub struct CallRec {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Predicts in the fused batch, or 0 for an admin op.
    pub predicts: usize,
}

/// What one completion carried.
#[derive(Debug, Clone, Copy)]
pub enum Done {
    Predict {
        hash: u64,
        shape_ok: bool,
        finite: bool,
        via: ServedVia,
    },
    Adapt(&'static str),
    Evict,
}

/// One completion and the call that produced it.
#[derive(Debug, Clone, Copy)]
pub struct DoneRec {
    pub id: u64,
    pub tenant: u64,
    pub call: usize,
    pub done: Done,
}

/// Everything observed in one phase.
pub struct PhaseLog {
    /// `open` (the open loop), `sat` or `adapt`.
    pub name: &'static str,
    /// The phase's length on the thread's CPU clock: the schedule span (open
    /// loop), the time up to the end of the last call begun before the
    /// deadline (saturation), or the time used (back to back).
    pub length_ns: u64,
    pub ops: Vec<OpRec>,
    pub calls: Vec<CallRec>,
    pub done: Vec<DoneRec>,
    /// Saturation: predicts completed by calls begun before the deadline.
    pub counted: usize,
    /// Counter and histogram changes over the phase.
    pub diff: Snapshot,
    pub registry_end: RegistryStats,
}

impl PhaseLog {
    /// The op record behind each completion id.
    pub fn op_of(&self) -> HashMap<u64, usize> {
        self.ops
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.id.map(|id| (id, i)))
            .collect()
    }

    /// Tenants in the order the engine looked them up: per fused batch,
    /// each tenant at its first request (the engine groups first-appearance
    /// order and resolves one delta per group).
    pub fn lookup_order(&self) -> Vec<u64> {
        let mut order = Vec::new();
        let mut start = 0;
        while start < self.done.len() {
            let call = self.done[start].call;
            let end = start
                + self.done[start..]
                    .iter()
                    .take_while(|d| d.call == call)
                    .count();
            if self.calls[call].predicts > 0 {
                let mut seen: Vec<u64> = Vec::new();
                for d in &self.done[start..end] {
                    if !seen.contains(&d.tenant) {
                        seen.push(d.tenant);
                    }
                }
                order.extend(seen);
            }
            start = end;
        }
        order
    }
}

/// An op's tenant and its input: a copy of a payload row or of a walker's
/// slice.
fn prepare(op: Op, pool: &Tensor, walkers: &[Walker]) -> (u64, Tensor) {
    match op {
        Op::Predict { tenant, row } => (tenant, fixture::row(pool, row)),
        Op::Adapt { walker, slice } => (
            walkers[walker].tenant,
            walkers[walker].slices[slice].clone(),
        ),
    }
}

fn submit(rt: &ServeRuntime, op: Op, tenant: u64, x: Tensor) -> Option<u64> {
    match op {
        Op::Predict { .. } => {
            let _span = tasfar_obs::span("bench.submit_predict");
            rt.submit_predict(tenant, x).ok()
        }
        Op::Adapt { .. } => {
            let _span = tasfar_obs::span("bench.submit_adapt");
            rt.submit_adapt(tenant, x).ok()
        }
    }
}

/// The benchmark thread's state for one phase.
struct Runner<'a> {
    fix: &'a mut Fixture,
    /// Phase start on the thread's CPU clock.
    t0: u64,
    ops: Vec<OpRec>,
    calls: Vec<CallRec>,
    done: Vec<DoneRec>,
    admitted: usize,
}

impl<'a> Runner<'a> {
    fn new(fix: &'a mut Fixture) -> Self {
        Runner {
            fix,
            t0: clock::thread_ns(),
            ops: Vec::new(),
            calls: Vec::new(),
            done: Vec::new(),
            admitted: 0,
        }
    }

    fn now(&self) -> u64 {
        clock::thread_ns() - self.t0
    }

    /// Submits `op`, due at `at_ns`.
    fn submit(&mut self, op: Op, at_ns: u64) {
        let (tenant, x) = prepare(op, &self.fix.pool, &self.fix.walkers);
        let submit_at_ns = self.now();
        let id = submit(&self.fix.runtime, op, tenant, x);
        let submit_ns = self.now() - submit_at_ns;
        let free_since = self.calls.last().map_or(0, |c| c.end_ns).max(at_ns);
        self.admitted += usize::from(id.is_some());
        self.ops.push(OpRec {
            op,
            at_ns,
            late_ns: submit_at_ns.saturating_sub(free_since),
            submit_ns,
            id,
        });
    }

    fn outstanding(&self) -> bool {
        self.done.len() < self.admitted
    }

    /// One `process_next` call, recorded.
    fn process(&mut self) {
        let start_ns = self.now();
        let completions = {
            let _span = tasfar_obs::span("bench.process_next");
            self.fix.worker.process_next()
        };
        let end_ns = self.now();
        let call = self.calls.len();
        let mut predicts = 0;
        for c in completions {
            let d = match c.kind {
                CompletionKind::Predict { output, via } => {
                    predicts += 1;
                    let d = Done::Predict {
                        hash: hash_tensor_bits(&output),
                        shape_ok: output.rows() == 1 && output.cols() == self.fix.out_cols,
                        finite: output.as_slice().iter().all(|v| v.is_finite()),
                        via,
                    };
                    self.fix.worker.recycle(output);
                    d
                }
                CompletionKind::Adapt { outcome } => Done::Adapt(outcome),
                CompletionKind::Evict { .. } => Done::Evict,
            };
            self.done.push(DoneRec {
                id: c.id,
                tenant: c.tenant,
                call,
                done: d,
            });
        }
        self.calls.push(CallRec {
            start_ns,
            end_ns,
            predicts,
        });
    }

    fn finish(
        self,
        name: &'static str,
        before: Snapshot,
        length_ns: u64,
        counted: usize,
    ) -> PhaseLog {
        let registry_end = self.fix.runtime.registry().stats();
        let diff = Snapshot::diff(&before, &Snapshot::take(&registry_end));
        PhaseLog {
            name,
            length_ns,
            ops: self.ops,
            calls: self.calls,
            done: self.done,
            counted,
            diff,
            registry_end,
        }
    }
}

/// Runs an open-loop phase over `schedule` (sorted by due time), which
/// spans `seconds`.
pub fn open_loop(
    fix: &mut Fixture,
    name: &'static str,
    schedule: &[Arrival],
    seconds: f64,
) -> PhaseLog {
    let before = Snapshot::take(&fix.runtime.registry().stats());
    let mut d = Runner::new(fix);
    d.ops.reserve(schedule.len());
    let mut next = 0;
    loop {
        let now = d.now();
        while next < schedule.len() && schedule[next].at_ns <= now {
            d.submit(schedule[next].op, schedule[next].at_ns);
            next += 1;
        }
        if d.outstanding() {
            d.process();
        } else if next == schedule.len() {
            break;
        }
    }
    let length_ns = ((seconds * 1e9) as u64).max(d.calls.last().map_or(0, |c| c.end_ns));
    d.finish(name, before, length_ns, 0)
}

/// Runs a saturation phase for `seconds`: whenever fewer than two windows
/// of predicts wait, the thread tops the queue up to four, drawing tenants
/// and payload rows from the seeded stream. Calls begun after the deadline
/// drain the queue and are not counted.
pub fn saturate(fix: &mut Fixture, name: &'static str, seed: u64, seconds: f64) -> PhaseLog {
    const LOW: usize = 2 * BATCH_WINDOW;
    const HIGH: usize = 4 * BATCH_WINDOW;
    let before = Snapshot::take(&fix.runtime.registry().stats());
    let deadline_ns = (seconds * 1e9) as u64;
    let mut who = SplitMix64::new(seed, 6);
    let mut rows = SplitMix64::new(seed, 7);
    let mut d = Runner::new(fix);
    let (mut counted, mut length_ns) = (0, deadline_ns);
    while d.outstanding() || d.now() < deadline_ns {
        let pending = d.admitted - d.done.len();
        if pending < LOW && d.now() < deadline_ns {
            for _ in pending..HIGH {
                let op = Op::Predict {
                    tenant: d.fix.zipf.rank(who.next_f64()) as u64,
                    row: rows.below(d.fix.pool.rows()),
                };
                let at_ns = d.now();
                d.submit(op, at_ns);
            }
        }
        let start_ns = d.now();
        d.process();
        if start_ns < deadline_ns {
            counted += d.calls.last().map_or(0, |c| c.predicts);
            length_ns = d.now();
        }
    }
    d.finish(name, before, length_ns, counted)
}

/// Runs a back-to-back phase for `seconds`: one op at a time from `ops`,
/// each submitted when the previous one has completed, until the time is
/// used up or `ops` runs out.
pub fn back_to_back(
    fix: &mut Fixture,
    name: &'static str,
    ops: &mut impl Iterator<Item = Op>,
    seconds: f64,
) -> PhaseLog {
    let before = Snapshot::take(&fix.runtime.registry().stats());
    let deadline_ns = (seconds * 1e9) as u64;
    let mut d = Runner::new(fix);
    while d.now() < deadline_ns {
        let Some(op) = ops.next() else { break };
        let at_ns = d.now();
        d.submit(op, at_ns);
        while d.outstanding() {
            d.process();
        }
    }
    let length_ns = d.now();
    d.finish(name, before, length_ns, 0)
}
