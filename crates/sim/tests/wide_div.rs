//! Regression test for the allocation-free wide-division path: a
//! cycled (registered) design with >64-bit divides, checked against the
//! reference interpreter on every engine, including zero divisors and
//! signed operands.

use gsim_graph::interp::RefInterp;
use gsim_graph::{Expr, GraphBuilder, PrimOp};
use gsim_sim::{SimOptions, Simulator};
use gsim_value::Value;

fn build() -> gsim_graph::Graph {
    let mut b = GraphBuilder::new("WideDiv");
    let d = b.input("d", 70, false);
    let acc = b.reg("acc", 100, false);
    // acc <= truncate(acc * 3 + d + 1, 100): a feedback that quickly
    // fills all 100 bits.
    let three = Expr::constant(Value::from_u64(3, 2));
    let one = Expr::constant(Value::from_u64(1, 1));
    let mul = Expr::prim(
        PrimOp::Mul,
        vec![Expr::reference(acc, 100, false), three],
        vec![],
    )
    .unwrap();
    let add = Expr::prim(
        PrimOp::Add,
        vec![mul, Expr::reference(d, 70, false)],
        vec![],
    )
    .unwrap();
    let next = Expr::truncate(
        Expr::prim(PrimOp::Add, vec![add, one], vec![]).unwrap(),
        100,
    );
    b.set_reg_next(acc, next);
    // Unsigned quotient and remainder of the wide register.
    let q = Expr::prim(
        PrimOp::Div,
        vec![
            Expr::reference(acc, 100, false),
            Expr::reference(d, 70, false),
        ],
        vec![],
    )
    .unwrap();
    b.output("q", q);
    let r = Expr::prim(
        PrimOp::Rem,
        vec![
            Expr::reference(acc, 100, false),
            Expr::reference(d, 70, false),
        ],
        vec![],
    )
    .unwrap();
    b.output("r", r);
    // Signed variants through asSInt (the remainder keeps the
    // dividend's sign; the quotient the XOR of the signs).
    let sacc = Expr::prim(
        PrimOp::AsSInt,
        vec![Expr::reference(acc, 100, false)],
        vec![],
    )
    .unwrap();
    let sd = Expr::prim(PrimOp::AsSInt, vec![Expr::reference(d, 70, false)], vec![]).unwrap();
    let sq = Expr::prim(PrimOp::Div, vec![sacc.clone(), sd.clone()], vec![]).unwrap();
    b.output("sq", Expr::prim(PrimOp::AsUInt, vec![sq], vec![]).unwrap());
    let sr = Expr::prim(PrimOp::Rem, vec![sacc, sd], vec![]).unwrap();
    b.output("sr", Expr::prim(PrimOp::AsUInt, vec![sr], vec![]).unwrap());
    b.finish().expect("valid graph")
}

#[test]
fn wide_divide_in_cycled_design_matches_reference() {
    let graph = build();
    let engines = [
        ("full-cycle", SimOptions::full_cycle()),
        ("full-cycle-mt2", SimOptions::full_cycle_mt(2)),
        ("essent-like", SimOptions::essent_like()),
        ("gsim", SimOptions::default()),
        ("gsim-jit", SimOptions::threaded()),
    ];
    // Divisor stimulus: wide values, small values, all-ones, and zero
    // (division by zero must follow the reference semantics).
    let stimuli: Vec<Value> = vec![
        Value::from_words(vec![0xdead_beef_1234_5678, 0x3f], 70),
        Value::from_u64(7, 70),
        Value::from_words(vec![u64::MAX, 0x3f], 70),
        Value::from_u64(0, 70),
        Value::from_u64(1, 70),
        Value::from_words(vec![0x8000_0000_0000_0001, 0x20], 70),
        Value::from_u64(0, 70),
        Value::from_u64(0xffff_ffff, 70),
    ];
    for (name, opts) in engines {
        let mut reference = RefInterp::new(&graph).unwrap();
        let mut sim = Simulator::compile(&graph, &opts).unwrap();
        for (cycle, d) in stimuli.iter().cycle().take(24).enumerate() {
            reference.poke("d", d.clone()).unwrap();
            sim.poke("d", d.clone()).unwrap();
            reference.step();
            sim.step();
            for out in ["q", "r", "sq", "sr"] {
                assert_eq!(
                    sim.peek(out).as_ref(),
                    reference.peek(out),
                    "engine {name} diverged on {out} at cycle {cycle}"
                );
            }
        }
    }
}
