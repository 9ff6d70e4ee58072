//! A two-pass text assembler for PERI.
//!
//! Syntax, one instruction per line:
//!
//! ```text
//! label:                 ; labels may share a line with an instruction
//!     addi r5, r5, 16    ; r-type / i-type: op rd, rs[, rt|imm]
//!     lw   r8, 0(r7)     ; memory: op reg, offset(base)
//!     beq  r6, r2, label ; branches: op rs, rt, label|pc
//!     j    label
//!     jr   r31
//!     li   r4, 100
//!     halt
//! ```
//!
//! Comments run from `#` or `;` to end of line. Immediates are decimal or
//! `0x` hexadecimal, optionally negative. Registers are `r0`–`r31` or merge
//! temporaries `t0`–`t31`.

use crate::{Inst, Op, Pc, Program, Reg};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An assembly error, with the 1-based source line where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "assembly error at line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

/// Assembles PERI source text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] pinpointing the offending source line for unknown
/// mnemonics, malformed operands, bad register names, duplicate labels, or
/// references to undefined labels.
///
/// # Example
///
/// ```
/// use preexec_isa::assemble;
///
/// let p = assemble("loop", "top: addi r1, r1, 1\n j top\n halt").unwrap();
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.inst(1).target, Some(0));
/// ```
pub fn assemble(name: &str, source: &str) -> Result<Program, AsmError> {
    let mut labels: HashMap<String, Pc> = HashMap::new();
    let mut lines: Vec<(usize, String)> = Vec::new();

    // Pass 1: strip comments, peel labels, record instruction lines.
    let mut pc: Pc = 0;
    for (lineno, raw) in source.lines().enumerate() {
        let lineno = lineno + 1;
        let mut text = raw;
        if let Some(i) = text.find(['#', ';']) {
            text = &text[..i];
        }
        let mut text = text.trim();
        while let Some(colon) = text.find(':') {
            let label = text[..colon].trim();
            if label.is_empty() || !is_ident(label) {
                return Err(err(lineno, format!("malformed label `{}`", &text[..colon])));
            }
            if labels.insert(label.to_string(), pc).is_some() {
                return Err(err(lineno, format!("duplicate label `{label}`")));
            }
            text = text[colon + 1..].trim();
        }
        if !text.is_empty() {
            lines.push((lineno, text.to_string()));
            pc += 1;
        }
    }

    // Pass 2: parse instructions.
    let mut program = Program::new(name);
    for (lineno, text) in &lines {
        let inst = parse_inst(*lineno, text, &labels)?;
        program.push(inst);
    }
    if let Err(bad_pc) = program.validate() {
        return Err(err(
            lines[bad_pc as usize].0,
            format!(
                "branch target out of range in `{}`",
                lines[bad_pc as usize].1
            ),
        ));
    }
    Ok(program)
}

fn err(line: usize, message: String) -> AsmError {
    AsmError { line, message }
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn parse_inst(line: usize, text: &str, labels: &HashMap<String, Pc>) -> Result<Inst, AsmError> {
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (text, ""),
    };
    let op = Op::from_mnemonic(mnemonic)
        .ok_or_else(|| err(line, format!("unknown mnemonic `{mnemonic}`")))?;
    let ops: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };

    let want = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(
                line,
                format!("`{mnemonic}` expects {n} operands, got {}", ops.len()),
            ))
        }
    };

    use Op::*;
    match op {
        Add | Sub | And | Or | Xor | Nor | Sllv | Srlv | Slt | Sltu | Mul => {
            want(3)?;
            Ok(Inst::rtype(
                op,
                parse_reg(line, ops[0])?,
                parse_reg(line, ops[1])?,
                parse_reg(line, ops[2])?,
            ))
        }
        Addi | Andi | Ori | Xori | Sll | Srl | Sra | Slti => {
            want(3)?;
            Ok(Inst::itype(
                op,
                parse_reg(line, ops[0])?,
                parse_reg(line, ops[1])?,
                parse_imm(line, ops[2])?,
            ))
        }
        Li => {
            want(2)?;
            Ok(Inst::li(parse_reg(line, ops[0])?, parse_imm(line, ops[1])?))
        }
        Mov => {
            want(2)?;
            Ok(Inst::mov(
                parse_reg(line, ops[0])?,
                parse_reg(line, ops[1])?,
            ))
        }
        Lb | Lbu | Lw | Ld => {
            want(2)?;
            let (offset, base) = parse_mem(line, ops[1])?;
            Ok(Inst::load(op, parse_reg(line, ops[0])?, base, offset))
        }
        Sb | Sw | Sd => {
            want(2)?;
            let (offset, base) = parse_mem(line, ops[1])?;
            Ok(Inst::store(op, parse_reg(line, ops[0])?, base, offset))
        }
        Beq | Bne | Blt | Bge | Ble | Bgt => {
            want(3)?;
            Ok(Inst::branch(
                op,
                parse_reg(line, ops[0])?,
                parse_reg(line, ops[1])?,
                parse_target(line, ops[2], labels)?,
            ))
        }
        J | Jal => {
            want(1)?;
            Ok(Inst::jump(op, parse_target(line, ops[0], labels)?))
        }
        Jr => {
            want(1)?;
            Ok(Inst::jr(parse_reg(line, ops[0])?))
        }
        Nop => {
            want(0)?;
            Ok(Inst::nop())
        }
        Halt => {
            want(0)?;
            Ok(Inst::halt())
        }
    }
}

fn parse_reg(line: usize, s: &str) -> Result<Reg, AsmError> {
    let (prefix, num) = s.split_at(1.min(s.len()));
    let base = match prefix {
        "r" => 0u8,
        "t" => 32u8,
        _ => return Err(err(line, format!("bad register `{s}`"))),
    };
    let n: u8 = num
        .parse()
        .map_err(|_| err(line, format!("bad register `{s}`")))?;
    if n >= 32 {
        return Err(err(
            line,
            format!("bad register `{s}` (index must be 0..32)"),
        ));
    }
    Ok(Reg::new(base + n))
}

fn parse_imm(line: usize, s: &str) -> Result<i64, AsmError> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let value = if let Some(hex) = body.strip_prefix("0x") {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse()
    }
    .map_err(|_| err(line, format!("bad immediate `{s}`")))?;
    Ok(if neg { -value } else { value })
}

fn parse_mem(line: usize, s: &str) -> Result<(i64, Reg), AsmError> {
    let open = s.find('(').ok_or_else(|| {
        err(
            line,
            format!("bad memory operand `{s}` (want offset(base))"),
        )
    })?;
    let close = s
        .rfind(')')
        .filter(|&c| c > open)
        .ok_or_else(|| err(line, format!("bad memory operand `{s}` (missing `)`)")))?;
    let offset_text = s[..open].trim();
    let offset = if offset_text.is_empty() {
        0
    } else {
        parse_imm(line, offset_text)?
    };
    let base = parse_reg(line, s[open + 1..close].trim())?;
    Ok((offset, base))
}

fn parse_target(line: usize, s: &str, labels: &HashMap<String, Pc>) -> Result<Pc, AsmError> {
    if let Some(&pc) = labels.get(s) {
        return Ok(pc);
    }
    if s.chars().all(|c| c.is_ascii_digit()) {
        return s
            .parse()
            .map_err(|_| err(line, format!("bad target `{s}`")));
    }
    Err(err(line, format!("undefined label `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpClass;

    /// The paper's Figure-1 pharmacy loop, verbatim instruction shapes.
    pub const PHARMACY: &str = r#"
    loop:
        bge  r4, r1, exit       # 00: i >= N_XACT?
        lw   r6, 0(r5)          # 01: coverage = xact[i].coverage
        beq  r6, r2, induct     # 02: coverage == FULL -> continue
        bne  r6, r3, generic    # 03: coverage != PARTIAL -> generic
        lw   r7, 4(r5)          # 04: drug_id = xact[i].drug_id
        j    merge              # 05
    generic:
        lw   r7, 8(r5)          # 06: drug_id = xact[i].generic_drug_id
    merge:
        sll  r7, r7, 2          # 07
        addi r7, r7, 4096       # 08: + &drugs
        lw   r8, 0(r7)          # 09: price (the problem load)
        add  r9, r9, r8         # 10: todays_take +=
    induct:
        addi r5, r5, 16         # 11: xact++
        addi r4, r4, 1          # 12: i++
        j    loop               # 13
    exit:
        halt                    # 14
    "#;

    #[test]
    fn pharmacy_loop_assembles() {
        let p = assemble("pharmacy", PHARMACY).unwrap();
        assert_eq!(p.len(), 15);
        // #00 bge -> exit (14)
        assert_eq!(p.inst(0).op, Op::Bge);
        assert_eq!(p.inst(0).target, Some(14));
        // #02 beq -> induct (11)
        assert_eq!(p.inst(2).target, Some(11));
        // #03 bne -> generic (6)
        assert_eq!(p.inst(3).target, Some(6));
        // #09 is the problem load
        assert_eq!(p.inst(9).class(), OpClass::Load);
        assert_eq!(p.inst(9).imm, 0);
        // #13 jumps back to 0
        assert_eq!(p.inst(13).target, Some(0));
    }

    #[test]
    fn numeric_targets() {
        let p = assemble("t", "beq r1, r2, 1\n halt").unwrap();
        assert_eq!(p.inst(0).target, Some(1));
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = assemble("t", "li r1, 0x10\n addi r2, r2, -5\n halt").unwrap();
        assert_eq!(p.inst(0).imm, 16);
        assert_eq!(p.inst(1).imm, -5);
    }

    #[test]
    fn negative_memory_offset() {
        let p = assemble("t", "ld r1, -8(r2)\n halt").unwrap();
        assert_eq!(p.inst(0).imm, -8);
    }

    #[test]
    fn bare_paren_memory_operand() {
        let p = assemble("t", "ld r1, (r2)\n halt").unwrap();
        assert_eq!(p.inst(0).imm, 0);
    }

    #[test]
    fn temporaries_parse() {
        let p = assemble("t", "mov t0, r5\n halt").unwrap();
        assert_eq!(p.inst(0).rd, Some(Reg::temp(0)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("t", "nop\nbogus r1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("t", "a: nop\na: nop\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn undefined_label_rejected() {
        let e = assemble("t", "j nowhere\n").unwrap_err();
        assert!(e.message.contains("undefined"));
    }

    #[test]
    fn wrong_operand_count() {
        let e = assemble("t", "add r1, r2\n").unwrap_err();
        assert!(e.message.contains("expects 3"));
    }

    #[test]
    fn bad_register_rejected() {
        let e = assemble("t", "add r1, r2, r32\n").unwrap_err();
        assert!(e.message.contains("bad register"));
    }

    #[test]
    fn labels_on_own_line() {
        let p = assemble("t", "start:\n  nop\n  j start\n halt").unwrap();
        assert_eq!(p.inst(1).target, Some(0));
    }

    #[test]
    fn comments_stripped() {
        let p = assemble("t", "nop # a comment\nnop ; another\n").unwrap();
        assert_eq!(p.len(), 2);
    }
}
