//! Fault-injection helpers for robustness testing.
//!
//! Deterministic text-corruption primitives for attacking serialized
//! slice-forest files, plus builders for hostile p-thread bodies. They
//! exist so the fault-injection harness (`tests/fault_injection.rs` in the
//! facade crate) and ad-hoc debugging sessions share one vocabulary of
//! faults. Nothing here uses randomness: every corruption is a pure
//! function of its arguments, so a failing scenario replays exactly.

use preexec_core::{Advantage, StaticPThread};
use preexec_isa::{Inst, Op, Reg};

/// Removes line `n` (0-based) entirely, including its newline.
///
/// Out-of-range `n` returns the text unchanged.
pub fn drop_line(text: &str, n: usize) -> String {
    rebuild_lines(text, |i, line, out| {
        if i != n {
            out.push(line);
        }
    })
}

/// Duplicates line `n` (0-based), modeling a torn append or a re-sent
/// record.
///
/// Out-of-range `n` returns the text unchanged.
pub fn dup_line(text: &str, n: usize) -> String {
    rebuild_lines(text, |i, line, out| {
        out.push(line);
        if i == n {
            out.push(line);
        }
    })
}

/// Keeps only the first `n` bytes, cutting mid-line (the classic partial
/// `write(2)` on a full disk). Clamped to a UTF-8 boundary so the result
/// stays a valid `&str`.
pub fn truncate_bytes(text: &str, n: usize) -> String {
    let mut n = n.min(text.len());
    while n > 0 && !text.is_char_boundary(n) {
        n -= 1;
    }
    text[..n].to_string()
}

/// Cuts the final non-empty line roughly in half, modeling a writer
/// SIGKILLed mid-append — the canonical torn tail of an append-only
/// journal. Checksummed readers must drop exactly that record and keep
/// everything before it.
///
/// Text without a non-empty line returns unchanged.
pub fn torn_tail(text: &str) -> String {
    let trimmed = text.trim_end_matches('\n');
    if trimmed.is_empty() {
        return text.to_string();
    }
    let last_start = trimmed.rfind('\n').map_or(0, |i| i + 1);
    let last_len = trimmed.len() - last_start;
    truncate_bytes(trimmed, last_start + last_len / 2)
}

/// Appends a line of plausible-looking garbage (non-record bytes),
/// modeling a foreign writer or a recycled disk sector landing after the
/// last good record. Checksummed readers must skip it.
pub fn append_garbage(text: &str) -> String {
    let mut out = text.to_string();
    if !out.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("deadbeefdeadbeef {\"ev\":\"noise\",\"seq\":0}\n");
    out
}

/// Flips bit `bit` of byte `byte` within line `n` (0-based everywhere),
/// modeling single-bit media corruption. If the flip would produce a
/// non-ASCII byte or a control character, the byte is replaced with `'~'`
/// instead so the result remains valid UTF-8 text — the reader's job is to
/// catch corrupt *records*, not to re-implement UTF-8 validation.
///
/// Out-of-range coordinates return the text unchanged.
pub fn flip_bit(text: &str, n: usize, byte: usize, bit: u32) -> String {
    let flipped = |line: &str| -> String {
        let mut bytes = line.as_bytes().to_vec();
        if let Some(b) = bytes.get_mut(byte) {
            let cand = *b ^ (1u8 << (bit % 8));
            *b = if cand.is_ascii_graphic() || cand == b' ' {
                cand
            } else {
                b'~'
            };
        }
        String::from_utf8(bytes).expect("ascii-safe flip")
    };
    let mut owned: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        owned.push(if i == n {
            flipped(line)
        } else {
            line.to_string()
        });
    }
    join_lines(text, owned.iter().map(String::as_str))
}

fn rebuild_lines<'a>(
    text: &'a str,
    mut f: impl FnMut(usize, &'a str, &mut Vec<&'a str>),
) -> String {
    let mut out: Vec<&str> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        f(i, line, &mut out);
    }
    join_lines(text, out.into_iter())
}

fn join_lines<'a>(original: &str, lines: impl Iterator<Item = &'a str>) -> String {
    let mut s = lines.collect::<Vec<_>>().join("\n");
    if original.ends_with('\n') && !s.is_empty() {
        s.push('\n');
    }
    s
}

/// A p-thread whose second instruction dereferences a wild (negative,
/// hence out-of-range once reinterpreted as unsigned) address — the
/// canonical "poisoned pointer chase" a stale trigger context produces.
pub fn poisoned_pthread(trigger: u32) -> StaticPThread {
    hostile_pthread(
        trigger,
        vec![
            Inst::li(Reg::new(20), -1),
            Inst::load(Op::Ld, Reg::new(21), Reg::new(20), 0),
        ],
    )
}

/// A p-thread that runs an unbounded ALU chain: `len` back-to-back
/// increments with no loads. With `len` above the step budget it exists
/// purely to trip the watchdog.
pub fn runaway_pthread(trigger: u32, len: usize) -> StaticPThread {
    let body = (0..len)
        .map(|_| Inst::itype(Op::Addi, Reg::new(20), Reg::new(20), 1))
        .collect();
    hostile_pthread(trigger, body)
}

fn hostile_pthread(trigger: u32, body: Vec<Inst>) -> StaticPThread {
    StaticPThread {
        trigger,
        targets: vec![trigger],
        body,
        dc_trig: 1,
        dc_ptcm: 1,
        advantage: Advantage::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: &str = "alpha\nbravo\ncharlie\n";

    #[test]
    fn line_surgeries() {
        assert_eq!(drop_line(T, 1), "alpha\ncharlie\n");
        assert_eq!(dup_line(T, 0), "alpha\nalpha\nbravo\ncharlie\n");
        assert_eq!(drop_line(T, 99), T);
    }

    #[test]
    fn byte_surgeries() {
        assert_eq!(truncate_bytes(T, 8), "alpha\nbr");
        let t = flip_bit(T, 0, 0, 1);
        assert_ne!(t, T);
        assert!(t.is_ascii());
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn journal_surgeries() {
        // Torn tail: the last record is cut mid-line, earlier ones intact.
        assert_eq!(torn_tail(T), "alpha\nbravo\ncha");
        assert_eq!(torn_tail("solo\n"), "so");
        assert_eq!(torn_tail(""), "");
        // Garbage append: everything before the noise is untouched.
        let g = append_garbage(T);
        assert!(g.starts_with(T) && g.ends_with('\n'));
        assert_eq!(g.lines().count(), 4);
        assert!(append_garbage("no-newline").starts_with("no-newline\n"));
    }

    #[test]
    fn hostile_pthreads_are_well_formed() {
        let p = poisoned_pthread(7);
        assert_eq!(p.trigger, 7);
        assert_eq!(p.body.len(), 2);
        assert_eq!(runaway_pthread(3, 100).body.len(), 100);
    }
}
