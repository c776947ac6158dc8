//! End-to-end integration: real RV32I programs on stuCore across every
//! simulator preset, checked against architectural results.

use gsim::{Compiler, Preset, Simulator};
use gsim_workloads::programs::{self, Program};

fn run_program(sim: &mut Simulator, p: &Program) -> u64 {
    sim.load_mem("imem", &p.image).unwrap();
    sim.poke_u64("reset", 1).unwrap();
    sim.run(2);
    sim.poke_u64("reset", 0).unwrap();
    let mut ran = 0;
    while ran < p.max_cycles && sim.peek_u64("halt") != Some(1) {
        sim.run(32);
        ran += 32;
    }
    assert_eq!(sim.peek_u64("halt"), Some(1), "{} did not halt", p.name);
    sim.peek_u64("result").expect("result port")
}

fn all_presets() -> Vec<Preset> {
    vec![
        Preset::Verilator,
        Preset::VerilatorMt(2),
        Preset::Essent,
        Preset::Arcilator,
        Preset::Gsim,
        Preset::GsimJit,
    ]
}

#[test]
fn fib_on_every_preset() {
    let graph = gsim_designs::stu_core();
    let p = programs::fib(15);
    for preset in all_presets() {
        let (mut sim, _) = Compiler::new(&graph).preset(preset).build().unwrap();
        assert_eq!(
            run_program(&mut sim, &p),
            p.expected_result,
            "{}",
            preset.name()
        );
    }
}

#[test]
fn coremark_mini_on_every_preset() {
    let graph = gsim_designs::stu_core();
    let p = programs::coremark_mini(3);
    for preset in all_presets() {
        let (mut sim, _) = Compiler::new(&graph).preset(preset).build().unwrap();
        assert_eq!(
            run_program(&mut sim, &p),
            p.expected_result,
            "{}",
            preset.name()
        );
    }
}

/// The benchmark-size programs must halt within their own cycle
/// budgets: a budget below the program's real cycle count makes every
/// harness that trusts `max_cycles` report a hang.
#[test]
fn long_programs_halt_within_their_budgets() {
    let graph = gsim_designs::stu_core();
    for p in [
        programs::coremark_mini(100),
        programs::linux_boot_mini(5000),
    ] {
        let (mut sim, _) = Compiler::new(&graph)
            .preset(Preset::GsimJit)
            .build()
            .unwrap();
        sim.load_mem("imem", &p.image).unwrap();
        sim.poke_u64("reset", 1).unwrap();
        sim.run(2);
        sim.poke_u64("reset", 0).unwrap();
        let mut ran = 0;
        while ran < p.max_cycles && sim.peek_u64("halt") != Some(1) {
            sim.run(1);
            ran += 1;
        }
        assert_eq!(
            sim.peek_u64("halt"),
            Some(1),
            "{} did not halt within its {}-cycle budget",
            p.name,
            p.max_cycles
        );
        assert_eq!(
            sim.peek_u64("result"),
            Some(p.expected_result),
            "{}",
            p.name
        );
    }
}

#[test]
fn linux_boot_mini_checksum() {
    let graph = gsim_designs::stu_core();
    let p = programs::linux_boot_mini(120);
    let (mut sim, _) = Compiler::new(&graph).preset(Preset::Gsim).build().unwrap();
    assert_eq!(run_program(&mut sim, &p), p.expected_result);
}

#[test]
fn memory_programs_on_gsim_and_verilator() {
    let graph = gsim_designs::stu_core();
    for p in [programs::bubble_sort(), programs::memcpy_bench(24)] {
        for preset in [Preset::Verilator, Preset::Gsim] {
            let (mut sim, _) = Compiler::new(&graph).preset(preset).build().unwrap();
            assert_eq!(
                run_program(&mut sim, &p),
                p.expected_result,
                "{} on {}",
                p.name,
                preset.name()
            );
        }
    }
}

#[test]
fn gsim_evaluates_fewer_nodes_than_it_has() {
    // The essential engine's reason to exist: the activity factor on a
    // real CPU running a real program is far below 1.
    let graph = gsim_designs::stu_core();
    let p = programs::fib(20);
    let (mut sim, report) = Compiler::new(&graph).preset(Preset::Gsim).build().unwrap();
    run_program(&mut sim, &p);
    let af = sim.counters().activity_factor(report.nodes_after);
    assert!(
        af < 0.95,
        "essential engine should skip some work, af = {af}"
    );
}

#[test]
fn dmem_state_matches_across_presets() {
    let graph = gsim_designs::stu_core();
    let p = programs::memcpy_bench(8);
    let mut images = Vec::new();
    for preset in [Preset::Verilator, Preset::Gsim, Preset::Essent] {
        let (mut sim, _) = Compiler::new(&graph).preset(preset).build().unwrap();
        run_program(&mut sim, &p);
        let dst_base = 6144 / 4;
        let words: Vec<u64> = (0..8)
            .map(|i| {
                sim.read_mem("dmem", dst_base + i)
                    .unwrap()
                    .to_u64()
                    .unwrap()
            })
            .collect();
        images.push(words);
    }
    assert_eq!(images[0], images[1]);
    assert_eq!(images[1], images[2]);
}
