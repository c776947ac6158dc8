//! Cross-crate equivalence: the full optimization pipeline and every
//! engine preserve cycle-accurate behaviour on generated designs, and
//! FIRRTL survives a print/parse round trip. The preset matrix runs
//! through the generic `&mut dyn Session` harness, with the
//! persistent AoT session in the loop alongside the interpreter
//! engines.

mod common;

use common::{assert_sessions_match_reference, preset_sessions, push_aot_session};
use gsim::{Compiler, OptOptions, Preset};
use gsim_designs::SynthParams;
use gsim_workloads::Profile;

#[test]
fn synth_core_equivalent_across_presets_and_reference() {
    let params = SynthParams::for_target("Rocket", 1_200);
    let graph = gsim_designs::synth_core(&params);
    let mut sessions = preset_sessions(
        &graph,
        &[
            Preset::Verilator,
            Preset::VerilatorMt(2),
            Preset::Essent,
            Preset::Arcilator,
            Preset::Gsim,
        ],
    );
    push_aot_session(&graph, &mut sessions);
    let mut stim = Profile::coremark().stimulus(1, 0xA5);
    let frames: Vec<Vec<(String, u64)>> = (0..120)
        .map(|_| vec![("op_in_0".to_string(), stim.next_cycle()[0])])
        .collect();
    assert_sessions_match_reference("synth/Rocket", &graph, &mut sessions, 120, &[], &frames);
}

/// The reset signal of a register can itself be a register (the
/// reset-synchronizer pattern). Engines must latch reset signals
/// pre-edge, like `RefInterp`'s compute-then-commit phases — a live
/// read during the one-by-one register commit sees the post-edge value
/// and applies reset a cycle early. This covers the slow-path reset of
/// the GSIM presets and the fast-path mux of the baseline presets.
#[test]
fn register_driven_reset_matches_reference_across_presets() {
    let graph = gsim_designs::reset_synchronizer();
    let mut sessions = preset_sessions(
        &graph,
        &[
            Preset::Verilator,
            Preset::VerilatorMt(2),
            Preset::Essent,
            Preset::Arcilator,
            Preset::Gsim,
            Preset::GsimJit,
        ],
    );
    // Isolated pulses and a double pulse, so the synchronized reset
    // asserts while the counter holds both zero and nonzero values.
    let frames: Vec<Vec<(String, u64)>> = (0..64u64)
        .map(|cycle| {
            let rst = u64::from(cycle % 13 == 4 || cycle % 17 == 8 || cycle % 17 == 9);
            vec![("rst".to_string(), rst)]
        })
        .collect();
    assert_sessions_match_reference("sync-reset", &graph, &mut sessions, 64, &[], &frames);
}

#[test]
fn staircase_configs_agree_on_synth_core() {
    let params = SynthParams::for_target("stu", 800);
    let graph = gsim_designs::synth_core(&params);
    let mut sims: Vec<(String, gsim::Simulator)> = OptOptions::staircase()
        .into_iter()
        .map(|(name, opts)| {
            (
                name.to_string(),
                Compiler::new(&graph).options(opts).build().unwrap().0,
            )
        })
        .collect();
    let mut stim = Profile::linux().stimulus(1, 0x77);
    for cycle in 0..100 {
        let op = stim.next_cycle()[0];
        let mut golden = None;
        for (name, sim) in &mut sims {
            sim.poke_u64("op_in_0", op).unwrap();
            sim.step();
            let sig = sim.peek_u64("signature");
            match &golden {
                None => golden = Some(sig),
                Some(g) => assert_eq!(&sig, g, "{name} diverged at cycle {cycle}"),
            }
        }
    }
}

#[test]
fn stucore_firrtl_round_trips_through_printer() {
    let src = gsim_designs::stu_core_firrtl();
    let parsed = gsim_firrtl::parse(&src).unwrap();
    let printed = gsim_firrtl::print_circuit(&parsed);
    let reparsed = gsim_firrtl::parse(&printed).unwrap();
    let g1 = gsim_firrtl::lower(&parsed).unwrap();
    let g2 = gsim_firrtl::lower(&reparsed).unwrap();
    assert_eq!(g1.num_nodes(), g2.num_nodes());
    assert_eq!(g1.num_edges(), g2.num_edges());

    // Behavioural check: both lowered graphs run a program identically.
    let p = gsim_workloads::programs::fib(12);
    let mut results = Vec::new();
    for g in [&g1, &g2] {
        let (mut sim, _) = Compiler::new(g).preset(Preset::Gsim).build().unwrap();
        sim.load_mem("imem", &p.image).unwrap();
        sim.poke_u64("reset", 1).unwrap();
        sim.run(2);
        sim.poke_u64("reset", 0).unwrap();
        sim.run(p.max_cycles);
        results.push(sim.peek_u64("result"));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], Some(p.expected_result));
}

#[test]
fn codegen_emits_for_optimized_designs() {
    let params = SynthParams::for_target("stu", 600);
    let graph = gsim_designs::synth_core(&params);
    let (optimized, _) = gsim_passes::run(graph, &gsim_passes::PassOptions::all());
    for style in [
        gsim_codegen::Style::FullCycle,
        gsim_codegen::Style::Essential,
    ] {
        let out = gsim_codegen::emit(
            &optimized,
            style,
            &gsim_partition::PartitionOptions::default(),
        );
        assert!(out.code_bytes > 1_000);
        assert!(out.data_bytes > 0);
    }
}
