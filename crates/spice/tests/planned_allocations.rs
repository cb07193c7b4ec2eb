//! Allocation regression test for the DC solver: a solve's heap
//! allocations do not grow with the number of blocks or Newton
//! iterations it runs, because every iteration refills one workspace.
//!
//! Its own test binary, so the counting allocator it installs sees
//! nothing but these solves (the counts are per thread).

use pnc_spice::af::{attach_negation, VDD, VSS};
use pnc_spice::dc::{solve_dc_planned, solve_dc_with, SolverConfig};
use pnc_spice::{AfKind, BlockPlan, Circuit, OperatingPoint};
use pnc_telemetry::alloc::{self, CountingAllocator};
use pnc_telemetry::Telemetry;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `stages` copies of input → negation cell → unity buffer → crossbar
/// resistor → p-tanh cell, each stage driven by the previous one's
/// output, as an exported network wires its layers.
fn chain(stages: usize) -> Circuit {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    c.vsource(vdd, Circuit::GROUND, VDD);
    c.vsource(vss, Circuit::GROUND, VSS);
    let mut signal = c.node("in");
    c.vsource(signal, Circuit::GROUND, 0.4);
    let kind = AfKind::PTanh;
    let design = kind.default_design();
    for _ in 0..stages {
        let neg = attach_negation(&mut c, vdd, vss, signal);
        let buf = c.node("neg_buf");
        c.vcvs(buf, Circuit::GROUND, neg, Circuit::GROUND, 1.0);
        let z = c.node("z");
        c.resistor(buf, z, 50_000.0);
        c.resistor(vdd, z, 200_000.0);
        c.resistor(z, Circuit::GROUND, 100_000.0);
        signal = kind.attach(&mut c, design.q(), vdd, vss, z);
    }
    c
}

/// Heap allocations this thread makes while `solve` runs, and its
/// result.
fn counted(solve: impl FnOnce() -> OperatingPoint) -> (u64, OperatingPoint) {
    let before = alloc::thread_totals().0;
    let op = solve();
    (alloc::thread_totals().0 - before, op)
}

#[test]
fn solve_allocations_do_not_grow_with_the_circuit() {
    alloc::enable();
    let cfg = SolverConfig::default();
    let tel = Telemetry::disabled();
    let mut planned = Vec::new();
    let mut cold = Vec::new();
    for stages in [1, 4, 16] {
        let c = chain(stages);
        let plan = BlockPlan::new(&c);
        // The first solve sets up the thread's solver statistics.
        solve_dc_planned(&c, &plan, &cfg, None, &tel).expect("planned solve");
        let (count, _) = counted(|| solve_dc_planned(&c, &plan, &cfg, None, &tel).unwrap());
        planned.push((stages, count));
        let (count, op) = counted(|| solve_dc_with(&c, &cfg, None, &tel).unwrap());
        cold.push((stages, count, op.iterations()));
    }
    // Every chain runs more blocks than the last, and the cold solves
    // more whole-circuit Newton iterations.
    assert!(
        cold.windows(2).all(|w| w[1].2 > w[0].2),
        "cold iterations {cold:?}"
    );
    assert!(
        planned.iter().all(|&(_, count)| count == planned[0].1),
        "warm planned solves allocate per block or iteration: {planned:?}"
    );
    assert!(
        cold.iter().all(|&(_, count, _)| count == cold[0].1),
        "cold solves allocate per iteration: {cold:?}"
    );
}
