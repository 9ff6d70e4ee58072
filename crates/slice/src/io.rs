//! Slice-forest file I/O.
//!
//! The paper's toolflow writes slice trees to files so that "multiple
//! p-thread sets for the same cache configuration but different pipeline,
//! latency and p-thread optimization configurations \[can\] be generated
//! quickly" (§4.1): the expensive trace+slice pass runs once, selection
//! re-runs cheaply. This module provides a line-oriented text format for
//! [`SliceForest`], round-trip safe and human-inspectable.
//!
//! Format:
//!
//! ```text
//! preexec-slices version=2 checksum=<fnv1a-64 hex of everything below>
//! forest sample_insts=<n>
//! exec <pc> <count>            # one per static PC with nonzero DC_trig
//! tree <root pc> dc=<n> deps=<d0,d1,...> inst=<assembly>
//! node parent=<id> pc=<pc> dc=<n> dist_sum=<s> deps=<...> inst=<assembly>
//! ```
//!
//! Node ids are implicit: the root of the current tree is 0 and each
//! `node` line takes the next id in order, which matches how trees are
//! built (parents always precede children).
//!
//! Because slice files sit between a long trace run and many cheap
//! selection runs, corruption (truncated copies, editor mangling, partial
//! writes) must be *detected* and, where possible, *survived*:
//!
//! - [`read_forest`] is strict: the header's version must match and the
//!   checksum must verify, and any malformed record fails the parse with a
//!   line-numbered [`ParseForestError`]. Headerless (version-1) files are
//!   still accepted, without integrity checking.
//! - [`read_forest_lenient`] is the recovery path: it keeps every tree it
//!   can parse, drops any tree containing a corrupt line, and reports what
//!   it skipped as line-numbered diagnostics.

use crate::{SliceForest, SliceTree};
use preexec_isa::{assemble, Inst, Pc};
use std::error::Error;
use std::fmt;

/// Version written by [`write_forest`]. Version 1 is the original
/// headerless format, still accepted on read.
pub const FORMAT_VERSION: u32 = 2;

/// An error while parsing a serialized slice forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseForestError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseForestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slice forest parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseForestError {}

fn err(line: usize, message: impl Into<String>) -> ParseForestError {
    ParseForestError {
        line,
        message: message.into(),
    }
}

/// FNV-1a, 64-bit: small, dependency-free, and plenty to catch the
/// truncation/bit-rot class of corruption a checksum is for (this is an
/// integrity check, not an authenticity one). The workspace's one copy:
/// the slice-file header, the artifact cache's keys and the daemon's
/// journal records all use it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Serializes a forest to the text format, prefixed with a version and
/// checksum header covering every byte after the header line.
pub fn write_forest(forest: &SliceForest) -> String {
    let mut body = String::new();
    body.push_str(&format!("forest sample_insts={}\n", forest.sample_insts()));
    for (pc, count) in forest.exec_counts() {
        body.push_str(&format!("exec {pc} {count}\n"));
    }
    for (root_pc, tree) in forest.trees() {
        let root = tree.root();
        body.push_str(&format!(
            "tree {root_pc} dc={} deps={} inst={}\n",
            root.dc_ptcm,
            join(&root.dep_depths),
            root.inst
        ));
        for (id, node) in tree.iter().skip(1) {
            body.push_str(&format!(
                "node parent={} pc={} dc={} dist_sum={} deps={} inst={}\n",
                node.parent.expect("non-root has parent"),
                node.pc,
                node.dc_ptcm,
                tree.dist_sum(id),
                join(&node.dep_depths),
                node.inst
            ));
        }
    }
    let mut out = format!(
        "preexec-slices version={FORMAT_VERSION} checksum={:016x}\n",
        fnv1a64(body.as_bytes())
    );
    out.push_str(&body);
    out
}

fn join(v: &[u32]) -> String {
    if v.is_empty() {
        "-".to_string()
    } else {
        v.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
    }
}

fn parse_deps(s: &str, line: usize) -> Result<Vec<u32>, ParseForestError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|x| x.parse().map_err(|_| err(line, format!("bad deps `{s}`"))))
        .collect()
}

fn parse_inst(s: &str, line: usize) -> Result<Inst, ParseForestError> {
    let program = assemble("io", s).map_err(|e| err(line, e.to_string()))?;
    if program.len() != 1 {
        return Err(err(line, format!("expected one instruction in `{s}`")));
    }
    Ok(*program.inst(0))
}

fn field<'a>(parts: &'a [&'a str], key: &str, line: usize) -> Result<&'a str, ParseForestError> {
    parts
        .iter()
        .find_map(|p| p.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| err(line, format!("missing field `{key}`")))
}

/// The parsed `preexec-slices` header of a version-2 file.
struct Header {
    /// 1-based line the header sits on.
    line: usize,
    version: u32,
    checksum: u64,
    /// Byte offset of the first payload byte (just past the header line).
    payload_start: usize,
}

/// Locates and parses the header. `Ok(None)` means a legacy headerless
/// file: the first significant line is already a record.
fn find_header(text: &str) -> Result<Option<Header>, ParseForestError> {
    let mut offset = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let next = (offset + raw.len() + 1).min(text.len());
        let t = raw.trim();
        if t.is_empty() || t.starts_with('#') {
            offset = next;
            continue;
        }
        if !t.starts_with("preexec-slices") {
            return Ok(None);
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        let version = field(&parts, "version", lineno)?
            .parse()
            .map_err(|_| err(lineno, "bad version"))?;
        let checksum = u64::from_str_radix(field(&parts, "checksum", lineno)?, 16)
            .map_err(|_| err(lineno, "bad checksum"))?;
        return Ok(Some(Header {
            line: lineno,
            version,
            checksum,
            payload_start: next,
        }));
    }
    Ok(None)
}

/// Validates a found header against the payload, returning the
/// line-numbered error for an unsupported version or checksum mismatch.
fn check_header(h: &Header, text: &str) -> Result<(), ParseForestError> {
    if h.version != FORMAT_VERSION {
        return Err(err(
            h.line,
            format!(
                "unsupported slice-file version {} (this build reads version {FORMAT_VERSION})",
                h.version
            ),
        ));
    }
    let computed = fnv1a64(&text.as_bytes()[h.payload_start..]);
    if computed != h.checksum {
        return Err(err(
            h.line,
            format!(
                "checksum mismatch: header says {:016x} but payload hashes to {computed:016x} \
                 (truncated or corrupted file?)",
                h.checksum
            ),
        ));
    }
    Ok(())
}

fn parse_forest_line(parts: &[&str], lineno: usize) -> Result<u64, ParseForestError> {
    field(parts, "sample_insts", lineno)?
        .parse()
        .map_err(|_| err(lineno, "bad sample_insts"))
}

fn parse_exec_line(parts: &[&str], lineno: usize) -> Result<(Pc, u64), ParseForestError> {
    if parts.len() != 3 {
        return Err(err(lineno, "exec wants `exec <pc> <count>`"));
    }
    let pc = parts[1].parse().map_err(|_| err(lineno, "bad pc"))?;
    let count = parts[2].parse().map_err(|_| err(lineno, "bad count"))?;
    Ok((pc, count))
}

fn parse_tree_line(
    parts: &[&str],
    inst_text: Option<&str>,
    lineno: usize,
) -> Result<SliceTree, ParseForestError> {
    let pc: Pc = parts
        .get(1)
        .ok_or_else(|| err(lineno, "tree wants a root pc"))?
        .parse()
        .map_err(|_| err(lineno, "bad root pc"))?;
    let inst = parse_inst(
        inst_text.ok_or_else(|| err(lineno, "missing inst"))?,
        lineno,
    )?;
    let dc = field(parts, "dc", lineno)?
        .parse()
        .map_err(|_| err(lineno, "bad dc"))?;
    let deps = parse_deps(field(parts, "deps", lineno)?, lineno)?;
    let mut tree = SliceTree::new(pc, inst);
    tree.set_root_stats(dc, deps);
    Ok(tree)
}

fn parse_node_line(
    tree: &mut SliceTree,
    parts: &[&str],
    inst_text: Option<&str>,
    lineno: usize,
) -> Result<(), ParseForestError> {
    let parent: usize = field(parts, "parent", lineno)?
        .parse()
        .map_err(|_| err(lineno, "bad parent"))?;
    if parent >= tree.len() {
        return Err(err(lineno, format!("parent {parent} out of range")));
    }
    let pc = field(parts, "pc", lineno)?
        .parse()
        .map_err(|_| err(lineno, "bad pc"))?;
    let dc = field(parts, "dc", lineno)?
        .parse()
        .map_err(|_| err(lineno, "bad dc"))?;
    let dist_sum = field(parts, "dist_sum", lineno)?
        .parse()
        .map_err(|_| err(lineno, "bad dist_sum"))?;
    let deps = parse_deps(field(parts, "deps", lineno)?, lineno)?;
    let inst = parse_inst(
        inst_text.ok_or_else(|| err(lineno, "missing inst"))?,
        lineno,
    )?;
    tree.push_node_raw(pc, inst, parent, dc, dist_sum, deps);
    Ok(())
}

/// Splits a record line into its whitespace fields plus the trailing
/// free-form `inst=` text (which may contain spaces).
fn split_record(lineof: &str) -> (Vec<&str>, Option<&str>) {
    let (head, inst_text) = match lineof.split_once("inst=") {
        Some((h, i)) => (h.trim(), Some(i.trim())),
        None => (lineof, None),
    };
    (head.split_whitespace().collect(), inst_text)
}

/// Parses a forest from the text format, verifying the header.
///
/// # Errors
///
/// Returns a [`ParseForestError`] naming the offending line for an
/// unsupported version, a checksum mismatch, or malformed headers, fields,
/// instructions, or node references. For best-effort recovery of a
/// corrupted file, use [`read_forest_lenient`] instead.
pub fn read_forest(text: &str) -> Result<SliceForest, ParseForestError> {
    if let Some(h) = find_header(text)? {
        check_header(&h, text)?;
    }
    let mut sample_insts = 0u64;
    let mut exec_counts: Vec<(Pc, u64)> = Vec::new();
    let mut trees: Vec<SliceTree> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let lineof = raw.trim();
        if lineof.is_empty() || lineof.starts_with('#') {
            continue;
        }
        let (parts, inst_text) = split_record(lineof);
        match parts.first().copied() {
            Some("preexec-slices") => {} // validated above
            Some("forest") => sample_insts = parse_forest_line(&parts, lineno)?,
            Some("exec") => exec_counts.push(parse_exec_line(&parts, lineno)?),
            Some("tree") => trees.push(parse_tree_line(&parts, inst_text, lineno)?),
            Some("node") => {
                let tree = trees
                    .last_mut()
                    .ok_or_else(|| err(lineno, "node before any tree"))?;
                parse_node_line(tree, &parts, inst_text, lineno)?;
            }
            Some(other) => return Err(err(lineno, format!("unknown record `{other}`"))),
            None => unreachable!("blank lines skipped"),
        }
    }
    Ok(SliceForest::from_parts(trees, exec_counts, sample_insts))
}

/// The product of a best-effort parse of a (possibly corrupted) slice
/// file: whatever could be recovered, plus what was lost and why.
#[derive(Debug)]
pub struct RecoveredForest {
    /// The forest assembled from every intact record.
    pub forest: SliceForest,
    /// One line-numbered diagnostic per problem encountered (checksum
    /// mismatch, malformed record, ...).
    pub diagnostics: Vec<ParseForestError>,
    /// Trees dropped because they contained a corrupt line.
    pub skipped_trees: usize,
}

impl RecoveredForest {
    /// Whether the file parsed completely clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.skipped_trees == 0
    }
}

/// Best-effort parse of a possibly-corrupted slice file.
///
/// Every record that parses is kept. A corrupt `tree` line drops that tree
/// (and its `node` lines); a corrupt `node` line drops the whole tree it
/// belongs to — a tree with a hole in it would mis-attribute `DC_pt-cm`
/// weight, so partial trees are never kept. Header problems (bad version,
/// checksum mismatch) are reported as diagnostics but do not stop the
/// parse. This function never panics and never returns `Err`; total
/// corruption simply yields an empty forest plus diagnostics.
pub fn read_forest_lenient(text: &str) -> RecoveredForest {
    let mut diagnostics = Vec::new();
    match find_header(text) {
        Ok(Some(h)) => {
            if let Err(e) = check_header(&h, text) {
                diagnostics.push(e);
            }
        }
        Ok(None) => {}
        Err(e) => diagnostics.push(e),
    }

    let mut sample_insts = 0u64;
    let mut exec_counts: Vec<(Pc, u64)> = Vec::new();
    let mut trees: Vec<SliceTree> = Vec::new();
    let mut skipped_trees = 0usize;
    // True while we are inside a tree that has been dropped: its remaining
    // `node` lines are skipped without further diagnostics.
    let mut dropping_current = false;

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let lineof = raw.trim();
        if lineof.is_empty() || lineof.starts_with('#') {
            continue;
        }
        let (parts, inst_text) = split_record(lineof);
        match parts.first().copied() {
            Some("preexec-slices") => {}
            Some("forest") => match parse_forest_line(&parts, lineno) {
                Ok(n) => sample_insts = n,
                Err(e) => diagnostics.push(e),
            },
            Some("exec") => match parse_exec_line(&parts, lineno) {
                Ok(ec) => exec_counts.push(ec),
                Err(e) => diagnostics.push(e),
            },
            Some("tree") => match parse_tree_line(&parts, inst_text, lineno) {
                Ok(t) => {
                    trees.push(t);
                    dropping_current = false;
                }
                Err(e) => {
                    diagnostics.push(e);
                    skipped_trees += 1;
                    dropping_current = true;
                }
            },
            Some("node") => {
                if dropping_current {
                    continue;
                }
                match trees.last_mut() {
                    None => diagnostics.push(err(lineno, "node before any tree")),
                    Some(tree) => {
                        if let Err(e) = parse_node_line(tree, &parts, inst_text, lineno) {
                            diagnostics.push(e);
                            trees.pop();
                            skipped_trees += 1;
                            dropping_current = true;
                        }
                    }
                }
            }
            Some(other) => diagnostics.push(err(lineno, format!("unknown record `{other}`"))),
            None => unreachable!("blank lines skipped"),
        }
    }

    RecoveredForest {
        forest: SliceForest::from_parts(trees, exec_counts, sample_insts),
        diagnostics,
        skipped_trees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceForestBuilder;
    use preexec_func::{run_trace, TraceConfig};

    fn sample_forest() -> SliceForest {
        let p = preexec_isa::assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 512\n\
             top: bge r2, r3, done\n ld r4, 0(r1)\n addi r1, r1, 64\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap();
        let mut b = SliceForestBuilder::new(1024, 16);
        run_trace(&p, &TraceConfig::default(), |d| b.observe(d));
        b.finish()
    }

    #[test]
    fn fnv1a64_matches_the_published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn round_trip_preserves_everything() {
        let forest = sample_forest();
        let text = write_forest(&forest);
        let back = read_forest(&text).expect("parses");
        assert_eq!(back.sample_insts(), forest.sample_insts());
        assert_eq!(back.num_trees(), forest.num_trees());
        for (pc, tree) in forest.trees() {
            let other = back.tree(pc).expect("tree present");
            assert_eq!(other.len(), tree.len());
            assert_eq!(back.dc_trig(pc), forest.dc_trig(pc));
            for (id, node) in tree.iter() {
                let o = other.node(id);
                assert_eq!(o.pc, node.pc);
                assert_eq!(o.inst, node.inst);
                assert_eq!(o.dc_ptcm, node.dc_ptcm);
                assert_eq!(o.depth, node.depth);
                assert_eq!(o.dep_depths, node.dep_depths);
                assert!((o.dist_pl() - node.dist_pl()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn parse_errors_carry_lines() {
        let e = read_forest("forest sample_insts=1\nbogus record\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = read_forest("node parent=0 pc=1 dc=1 dist_sum=0 deps=- inst=nop").unwrap_err();
        assert!(e.message.contains("before any tree"));
    }

    #[test]
    fn blank_lines_and_comments_ignored() {
        let forest = sample_forest();
        let mut text = String::from("# a comment\n\n");
        text.push_str(&write_forest(&forest));
        assert!(read_forest(&text).is_ok());
    }

    #[test]
    fn header_is_written_and_verified() {
        let text = write_forest(&sample_forest());
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("preexec-slices version=2 checksum="));
        assert!(read_forest(&text).is_ok());
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let text = write_forest(&sample_forest());
        // Flip one digit inside the payload (a dc= count) without touching
        // the header.
        let corrupted = text.replacen("dc=", "dc=9", 1);
        assert_ne!(corrupted, text);
        let e = read_forest(&corrupted).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("checksum mismatch"), "{}", e.message);
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let text = "preexec-slices version=99 checksum=0000000000000000\nforest sample_insts=0\n";
        let e = read_forest(text).unwrap_err();
        assert!(e.message.contains("version 99"), "{}", e.message);
    }

    #[test]
    fn legacy_headerless_files_still_parse() {
        let forest = sample_forest();
        let with_header = write_forest(&forest);
        // Strip the header line: this is exactly a version-1 file.
        let legacy: String = with_header
            .lines()
            .skip(1)
            .map(|l| format!("{l}\n"))
            .collect();
        let back = read_forest(&legacy).expect("legacy format accepted");
        assert_eq!(back.num_trees(), forest.num_trees());
    }

    #[test]
    fn lenient_read_of_clean_file_is_clean() {
        let forest = sample_forest();
        let r = read_forest_lenient(&write_forest(&forest));
        assert!(r.is_clean());
        assert_eq!(r.forest.num_trees(), forest.num_trees());
    }

    #[test]
    fn lenient_read_skips_corrupt_tree_and_keeps_the_rest() {
        let forest = sample_forest();
        let mut text = write_forest(&forest);
        // Append a second, corrupt tree followed by a valid one.
        text.push_str("tree not-a-pc dc=1 deps=- inst=nop\n");
        text.push_str("node parent=0 pc=1 dc=1 dist_sum=0 deps=- inst=nop\n");
        text.push_str("tree 77 dc=3 deps=- inst=ld r4, 0(r1)\n");
        let r = read_forest_lenient(&text);
        assert_eq!(r.skipped_trees, 1);
        // Checksum no longer matches (we appended) + the bad tree line.
        assert!(r.diagnostics.len() >= 2);
        assert_eq!(r.forest.num_trees(), forest.num_trees() + 1);
        assert!(r.forest.tree(77).is_some());
    }

    #[test]
    fn lenient_read_drops_tree_with_corrupt_node() {
        let text = "forest sample_insts=10\n\
                    tree 4 dc=2 deps=- inst=ld r4, 0(r1)\n\
                    node parent=99 pc=5 dc=2 dist_sum=2 deps=- inst=addi r1, r1, 8\n\
                    tree 9 dc=1 deps=- inst=ld r6, 0(r5)\n";
        let r = read_forest_lenient(text);
        assert_eq!(r.skipped_trees, 1);
        assert!(r.forest.tree(4).is_none(), "holed tree must be dropped");
        assert!(r.forest.tree(9).is_some());
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].line, 3);
    }

    #[test]
    fn lenient_read_never_errors_on_garbage() {
        let r = read_forest_lenient("total garbage\nmore garbage\n");
        assert_eq!(r.forest.num_trees(), 0);
        assert_eq!(r.diagnostics.len(), 2);
    }
}
