//! The paper's running example (Figures 1–3): the pharmacy cash-register
//! loop, its slice tree, and the aggregate-advantage calculation that
//! picks the induction-unrolled p-thread with score 177.
//!
//! This example rebuilds §3.1's working example *analytically* — the same
//! statistics the paper assumes (100 iterations, 20/60 branch split, 40
//! misses, 8-cycle miss latency, 4-wide processor, IPC 1) — and shows the
//! six candidate scores, the slice tree, and the whole-tree solution.
//!
//! Run with: `cargo run --release --example pharmacy`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec::core::{aggregate_advantage, candidate_body, solve_tree, SelectionParams};
use preexec::isa::{assemble, Inst, Op, Pc, Reg};
use preexec::slice::{SliceEntry, SliceTree};

/// The static code of Figure 1 (instruction numbering matches the paper).
const PHARMACY: &str = "
loop:
    bge  r4, r1, exit       # 00: i >= N_XACT?
    lw   r6, 0(r5)          # 01: coverage = xact[i].coverage
    beq  r6, r2, induct     # 02: coverage == FULL
    bne  r6, r3, generic    # 03: coverage != PARTIAL
    lw   r7, 4(r5)          # 04: drug_id = xact[i].drug_id
    j    merge              # 05
generic:
    lw   r7, 8(r5)          # 06: drug_id = xact[i].generic_drug_id
merge:
    sll  r7, r7, 2          # 07
    addi r7, r7, 4096       # 08: + &drugs
    lw   r8, 0(r7)          # 09: price — the problem load
    add  r9, r9, r8         # 10
induct:
    addi r5, r5, 16         # 11: xact++
    addi r4, r4, 1          # 12: i++
    j    loop               # 13
exit:
    halt                    # 14
";

fn entry(pc: Pc, inst: Inst, dist: u64, deps: Vec<u32>) -> SliceEntry {
    SliceEntry {
        pc,
        inst,
        dist,
        dep_positions: deps,
    }
}

fn root_inst() -> Inst {
    Inst::load(Op::Lw, Reg::new(8), Reg::new(7), 0)
}

/// One dynamic slice along the #04 path with `u` levels of induction.
fn left_slice(u: usize) -> Vec<SliceEntry> {
    let mut s = vec![
        entry(9, root_inst(), 0, vec![1]),
        entry(
            8,
            Inst::itype(Op::Addi, Reg::new(7), Reg::new(7), 4096),
            1,
            vec![2],
        ),
        entry(
            7,
            Inst::itype(Op::Sll, Reg::new(7), Reg::new(7), 2),
            2,
            vec![3],
        ),
        entry(
            4,
            Inst::load(Op::Lw, Reg::new(7), Reg::new(5), 4),
            4,
            vec![4],
        ),
    ];
    for k in 0..u {
        let dep = if k + 1 < u {
            vec![5 + k as u32]
        } else {
            vec![]
        };
        s.push(entry(
            11,
            Inst::itype(Op::Addi, Reg::new(5), Reg::new(5), 16),
            11 + 13 * k as u64,
            dep,
        ));
    }
    s
}

/// One dynamic slice along the #06 path.
fn right_slice(u: usize) -> Vec<SliceEntry> {
    let mut s = vec![
        entry(9, root_inst(), 0, vec![1]),
        entry(
            8,
            Inst::itype(Op::Addi, Reg::new(7), Reg::new(7), 4096),
            1,
            vec![2],
        ),
        entry(
            7,
            Inst::itype(Op::Sll, Reg::new(7), Reg::new(7), 2),
            2,
            vec![3],
        ),
        entry(
            6,
            Inst::load(Op::Lw, Reg::new(7), Reg::new(5), 8),
            3,
            vec![4],
        ),
    ];
    for k in 0..u {
        let dep = if k + 1 < u {
            vec![5 + k as u32]
        } else {
            vec![]
        };
        s.push(entry(
            11,
            Inst::itype(Op::Addi, Reg::new(5), Reg::new(5), 16),
            10 + 12 * k as u64,
            dep,
        ));
    }
    s
}

fn dc_trig(pc: Pc) -> u64 {
    match pc {
        7..=9 => 80, // 80 iterations contain load #09
        4 => 60,     // 60 use the #04 computation
        6 => 20,     // 20 use the #06 computation
        11 => 100,   // once per iteration
        _ => 0,
    }
}

fn main() {
    let program = assemble("pharmacy", PHARMACY).expect("assembles");
    println!("{program}");

    // Build the Figure-3 slice tree: 30 misses via #04, 10 via #06.
    let mut tree = SliceTree::new(9, root_inst());
    for _ in 0..30 {
        tree.insert_slice(&left_slice(3));
    }
    for _ in 0..10 {
        tree.insert_slice(&right_slice(3));
    }
    println!("Slice tree (Figure 3):\n{tree}");

    // The working example's parameters: 4-wide, IPC 1, 8-cycle misses.
    let params = SelectionParams::working_example();

    println!("Candidate scores along the #04 slice (Figure 2):");
    for node in 1..=6usize {
        let body = candidate_body(&tree, node);
        let adv = aggregate_advantage(
            &params,
            &body,
            &body,
            dc_trig(tree.node(node).pc),
            tree.node(node).dc_ptcm,
        );
        println!(
            "  candidate {} (trigger #{:02}, SIZE {}): LT {:>2}  OHagg {:>6.1}  ADVagg {:>6.1}",
            node,
            tree.node(node).pc,
            body.len(),
            adv.lt,
            adv.oh_agg,
            adv.adv_agg
        );
    }

    // Whole-tree solution (§3.2): both sides select their unrolled
    // p-thread; they do not overlap.
    let picks = solve_tree(&tree, &dc_trig, &params);
    println!("\nTree solution: {} p-thread(s)", picks.len());
    for (node, scored, net) in &picks {
        println!(
            "  node {} (trigger #{:02}): body {} insts, net ADVagg {:.1}",
            node,
            tree.node(*node).pc,
            scored.exec_body.len(),
            net
        );
        for inst in scored.exec_body.to_insts() {
            println!("      {inst}");
        }
    }
}
