//! Zero-width operand regressions in the encoded image: a zero-width
//! signed operand must neither panic the sign-extension path
//! (`pad(SInt<0>, 8)`) nor lose its signedness in comparisons
//! (`lt(SInt<0>, -1)` is signed and false), and a zero-width `andr`
//! stays vacuously 1 — all pinned against the reference interpreter on
//! every engine.

use gsim_graph::interp::RefInterp;
use gsim_sim::{SimOptions, Simulator};

const SRC: &str = r#"
circuit Z :
  module Z :
    input z : SInt<0>
    input u : UInt<0>
    input b : UInt<8>
    output padded : SInt<8>
    output cmp : UInt<1>
    output red : UInt<1>
    output catted : UInt<8>
    padded <= pad(z, 8)
    cmp <= lt(z, asSInt(b))
    red <= andr(u)
    catted <= cat(u, b)
"#;

#[test]
fn zero_width_operands_match_reference_on_every_engine() {
    let graph = gsim_firrtl::compile(SRC).unwrap();
    let engines = [
        ("full-cycle", SimOptions::full_cycle()),
        ("gsim", SimOptions::default()),
        ("gsim-jit", SimOptions::threaded()),
        ("mt-2", SimOptions::full_cycle_mt(2)),
    ];
    for (name, opts) in engines {
        let mut reference = RefInterp::new(&graph).unwrap();
        let mut sim = Simulator::compile(&graph, &opts).unwrap();
        // b = 0xFF is -1 as SInt<8>: signed lt(0, -1) must be false.
        for b in [0xFFu64, 0x00, 0x7F, 0x80] {
            reference.poke_u64("b", b).unwrap();
            sim.poke_u64("b", b).unwrap();
            reference.step();
            sim.step();
            for out in ["padded", "cmp", "red", "catted"] {
                assert_eq!(
                    sim.peek(out).as_ref(),
                    reference.peek(out),
                    "engine {name} diverged on {out} with b={b:#x}"
                );
            }
        }
    }
}
