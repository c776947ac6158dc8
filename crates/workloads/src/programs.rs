//! Real RV32I programs for stuCore.
//!
//! Each program ends with `ecall` leaving a checksum in `a0` (stuCore's
//! `result` output), so correctness is architecturally checkable on
//! every engine.

use crate::asm::{assemble_u64, AsmError};

/// A ready-to-load program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Name (used in reports).
    pub name: &'static str,
    /// Instruction-memory image.
    pub image: Vec<u64>,
    /// Expected `a0` checksum at halt (architectural oracle).
    pub expected_result: u64,
    /// Generous cycle budget to reach `ecall`.
    pub max_cycles: u64,
}

fn build(name: &'static str, src: &str, expected_result: u64, max_cycles: u64) -> Program {
    let image = assemble_u64(src).unwrap_or_else(|e: AsmError| panic!("{name}: {e}"));
    Program {
        name,
        image,
        expected_result,
        max_cycles,
    }
}

/// Iterative Fibonacci: `a0 = fib(n)`.
pub fn fib(n: u32) -> Program {
    let src = format!(
        r#"
        li   t0, {n}        # counter
        li   a0, 0          # fib(0)
        li   t1, 1          # fib(1)
        beqz t0, done
loop:   add  t2, a0, t1
        mv   a0, t1
        mv   t1, t2
        addi t0, t0, -1
        bnez t0, loop
done:   ecall
"#
    );
    let expected = {
        let (mut a, mut b) = (0u64, 1u64);
        for _ in 0..n {
            let t = (a + b) & 0xffff_ffff;
            a = b;
            b = t;
        }
        a
    };
    build("fib", &src, expected, 64 + 8 * n as u64)
}

/// CoreMark-mini: a hot loop mixing arithmetic, shifts, branches, and
/// memory traffic over a small working set, accumulating a checksum —
/// the hot-spot profile the paper attributes to CoreMark.
pub fn coremark_mini(iters: u32) -> Program {
    let src = format!(
        r#"
        li   s0, {iters}     # outer iterations
        li   a0, 0x5a5a      # checksum
        li   s1, 256         # working-set base (bytes)
        li   s2, 16          # table entries
        # initialize table: mem[base + 4i] = i * 2654435761 (knuth)
        li   t0, 0
        li   t3, 0x9e3779b1
init:   slli t1, t0, 2
        add  t1, t1, s1
        mv   t2, t0
        add  t2, t2, t3
        sw   t2, 0(t1)
        addi t0, t0, 1
        blt  t0, s2, init
outer:  li   t0, 0
inner:  andi t4, t0, 15
        slli t1, t4, 2
        add  t1, t1, s1
        lw   t2, 0(t1)       # load table entry
        add  a0, a0, t2      # accumulate
        xor  t2, t2, a0
        srli t5, t2, 3
        add  t2, t2, t5
        sw   t2, 0(t1)       # store back (memory write traffic)
        andi t6, a0, 7       # branchy: data-dependent path
        beqz t6, skip
        addi a0, a0, 13
skip:   addi t0, t0, 1
        blt  t0, s2, inner
        addi s0, s0, -1
        bnez s0, outer
        ecall
"#
    );
    // One outer iteration measures ~226 cycles on stuCore (16 inner
    // passes of ~14 cycles); budget 18 per pass for headroom.
    build(
        "coremark_mini",
        &src,
        coremark_mini_expected(iters),
        2_000 + iters as u64 * 16 * 18,
    )
}

/// Host-side model of `coremark_mini` (the architectural oracle).
fn coremark_mini_expected(iters: u32) -> u64 {
    let m = |x: u64| x & 0xffff_ffff;
    let mut table = [0u64; 16];
    for (i, t) in table.iter_mut().enumerate() {
        *t = m(i as u64 + 0x9e37_79b1);
    }
    let mut a0: u64 = 0x5a5a;
    for _ in 0..iters {
        for t in &mut table {
            let mut t2 = *t;
            a0 = m(a0 + t2);
            t2 = m(t2 ^ a0);
            t2 = m(t2 + (t2 >> 3));
            *t = t2;
            if a0 & 7 != 0 {
                a0 = m(a0 + 13);
            }
        }
    }
    a0
}

/// Linux-boot-mini: irregular pointer chasing across a larger working
/// set with unpredictable branches — the flat, low-locality profile the
/// paper attributes to booting Linux.
pub fn linux_boot_mini(steps: u32) -> Program {
    let src = format!(
        r#"
        li   s0, {steps}
        li   s1, 1024        # ring buffer base
        li   s2, 64          # entries
        li   a0, 0xb007      # checksum
        # build a scrambled pointer ring: next(i) = (i * 13 + 7) mod 64
        li   t0, 0
ring:   slli t1, t0, 2
        add  t1, t1, s1
        li   t2, 13
        mv   t3, t0
        # t3 = t0 * 13 via shifts/adds (no mul on rv32i base)
        slli t4, t3, 3
        slli t5, t3, 2
        add  t4, t4, t5
        add  t4, t4, t3
        addi t4, t4, 7
        andi t4, t4, 63
        slli t4, t4, 2
        add  t4, t4, s1
        sw   t4, 0(t1)       # store pointer
        addi t0, t0, 1
        blt  t0, s2, ring
        # chase pointers
        mv   t0, s1
chase:  lw   t0, 0(t0)       # follow pointer
        add  a0, a0, t0
        andi t6, a0, 31
        slli t6, t6, 2
        add  t6, t6, s1
        lw   t5, 0(t6)       # irregular second access
        xor  a0, a0, t5
        andi t4, a0, 1
        beqz t4, even
        addi a0, a0, 3
        j    next
even:   addi a0, a0, -1
next:   addi s0, s0, -1
        bnez s0, chase
        ecall
"#
    );
    // One chase step measures ~12.5 cycles on stuCore; budget 16.
    build(
        "linux_boot_mini",
        &src,
        linux_boot_mini_expected(steps),
        3_000 + steps as u64 * 16,
    )
}

fn linux_boot_mini_expected(steps: u32) -> u64 {
    let m = |x: u64| x & 0xffff_ffff;
    let base = 1024u64;
    let mut mem = std::collections::HashMap::<u64, u64>::new();
    for i in 0..64u64 {
        let next = (i * 13 + 7) % 64;
        mem.insert(base + i * 4, base + next * 4);
    }
    let mut a0: u64 = 0xb007;
    let mut t0 = base;
    for _ in 0..steps {
        t0 = *mem.get(&t0).unwrap_or(&0);
        a0 = m(a0 + t0);
        let idx = a0 & 31;
        let t5 = *mem.get(&(base + idx * 4)).unwrap_or(&0);
        a0 = m(a0 ^ t5);
        if a0 & 1 != 0 {
            a0 = m(a0 + 3);
        } else {
            a0 = m(a0.wrapping_sub(1));
        }
    }
    a0
}

/// In-place bubble sort of a small descending array; checksum is the
/// weighted sum of the sorted array.
pub fn bubble_sort() -> Program {
    let n = 12u64;
    let src = format!(
        r#"
        li   s1, 512         # array base
        li   s2, {n}
        # fill descending: a[i] = n - i
        li   t0, 0
fill:   slli t1, t0, 2
        add  t1, t1, s1
        sub  t2, s2, t0
        sw   t2, 0(t1)
        addi t0, t0, 1
        blt  t0, s2, fill
        # bubble sort
        addi s3, s2, -1      # passes
pass:   li   t0, 0
        addi t6, s2, -1
bubl:   slli t1, t0, 2
        add  t1, t1, s1
        lw   t2, 0(t1)
        lw   t3, 4(t1)
        bge  t3, t2, noswap
        sw   t3, 0(t1)
        sw   t2, 4(t1)
noswap: addi t0, t0, 1
        blt  t0, t6, bubl
        addi s3, s3, -1
        bnez s3, pass
        # checksum = sum (i+1)*a[i]
        li   a0, 0
        li   t0, 0
sum:    slli t1, t0, 2
        add  t1, t1, s1
        lw   t2, 0(t1)
        addi t3, t0, 1
        # multiply t2 * t3 by repeated add (t3 small)
        li   t4, 0
mulp:   add  t4, t4, t2
        addi t3, t3, -1
        bnez t3, mulp
        add  a0, a0, t4
        addi t0, t0, 1
        blt  t0, s2, sum
        ecall
"#
    );
    let expected: u64 = (1..=n).map(|i| i * i).sum::<u64>() & 0xffff_ffff;
    build("bubble_sort", &src, expected, 40_000)
}

/// Word-wise memcpy with verification checksum.
pub fn memcpy_bench(words: u32) -> Program {
    let src = format!(
        r#"
        li   s1, 2048        # src base
        li   s2, 6144        # dst base
        li   s3, {words}
        li   t0, 0
fill:   slli t1, t0, 2
        add  t1, t1, s1
        xori t2, t0, 0x2a
        sw   t2, 0(t1)
        addi t0, t0, 1
        blt  t0, s3, fill
        li   t0, 0
copy:   slli t1, t0, 2
        add  t2, t1, s1
        add  t3, t1, s2
        lw   t4, 0(t2)
        sw   t4, 0(t3)
        addi t0, t0, 1
        blt  t0, s3, copy
        li   a0, 0
        li   t0, 0
check:  slli t1, t0, 2
        add  t3, t1, s2
        lw   t4, 0(t3)
        add  a0, a0, t4
        addi t0, t0, 1
        blt  t0, s3, check
        ecall
"#
    );
    let expected: u64 = (0..words as u64).map(|i| i ^ 0x2a).sum::<u64>() & 0xffff_ffff;
    build("memcpy", &src, expected, 2_000 + words as u64 * 36)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_programs_assemble() {
        for p in [
            fib(10),
            coremark_mini(2),
            linux_boot_mini(50),
            bubble_sort(),
            memcpy_bench(16),
        ] {
            assert!(!p.image.is_empty(), "{} empty", p.name);
            assert!(p.image.len() < 4096, "{} too large for imem", p.name);
        }
    }

    #[test]
    fn fib_expectations() {
        assert_eq!(fib(0).expected_result, 0);
        assert_eq!(fib(1).expected_result, 1);
        assert_eq!(fib(10).expected_result, 55);
        assert_eq!(fib(20).expected_result, 6765);
    }
}
