//! The versioned binary snapshot codec.
//!
//! Hand-rolled in the same vendored spirit as `sst-service::wire` (the
//! build container has no registry access, so there is no `serde` here) —
//! but binary rather than NDJSON: a snapshot holds an entire arena plus a
//! database, and flat little-endian tables are both smaller and
//! mechanically checkable. Layout:
//!
//! ```text
//! magic "SSTSNAP\0" · u32 version · u64 payload_len · payload · u64 fnv1a(payload)
//! ```
//!
//! Every decode path is bounds-checked and returns a typed
//! [`SnapshotError`]; no input — truncated, bit-flipped, wrong-version or
//! adversarial — panics. The payload-wide FNV-1a checksum catches random
//! corruption; structural validation (id bounds at arena decode,
//! [`Arena::validate_struct`] node-reference bounds) catches the rest.
//!
//! Interned [`Symbol`]s are process-local (shard-packed ids), so a
//! snapshot never stores raw symbol ids: [`SymEncoder`] assigns dense
//! indices to every symbol the payload references and writes the string
//! table once; [`SymDecoder`] re-interns the strings on restore and maps
//! indices to the new process's symbols.

use std::fmt;

use sst_syntactic::{PosSet, RegexSeq, Token};
use sst_tables::{ColId, Database, Symbol, SymbolMap, Table};

use crate::{
    Arena, AtomListId, AtomRepr, CondRepr, DagId, DagRepr, NodeRepr, PosListId, ProgId, ProgRepr,
    StructId, SymListId,
};

/// Magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SSTSNAP\0";

/// Current snapshot format version. Bump on any layout change; old
/// readers answer [`SnapshotError::UnsupportedVersion`] instead of
/// misparsing. Version 2: the memo section is one list of example chains,
/// each with its structure id and recorded reads.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version is not one this build reads.
    UnsupportedVersion(u32),
    /// The file ends before its declared content does.
    Truncated,
    /// The content is structurally invalid (failed checksum, id out of
    /// bounds, malformed value).
    Corrupt(String),
    /// The underlying file could not be read or written.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::Io(why) => write!(f, "snapshot io error: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

fn corrupt(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(why.into())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frames `payload` into a complete snapshot file image.
pub fn seal_snapshot(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Verifies the frame (magic, version, length, checksum) and returns the
/// payload.
pub fn open_snapshot(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 12 {
        return if bytes.len() >= 8 && bytes[..8] != SNAPSHOT_MAGIC {
            Err(SnapshotError::BadMagic)
        } else {
            Err(SnapshotError::Truncated)
        };
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    if bytes.len() < 20 {
        return Err(SnapshotError::Truncated);
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let Some(total) = len.checked_add(28) else {
        return Err(corrupt("payload length overflows"));
    };
    if bytes.len() < total {
        return Err(SnapshotError::Truncated);
    }
    if bytes.len() > total {
        return Err(corrupt("trailing bytes after checksum"));
    }
    let payload = &bytes[20..20 + len];
    let declared = u64::from_le_bytes(bytes[20 + len..].try_into().unwrap());
    if fnv1a(payload) != declared {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(payload)
}

/// Little-endian payload writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The accumulated payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends one `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `i32` (two's complement).
    pub fn i32(&mut self, v: i32) {
        self.u32(v as u32);
    }

    /// Appends one bool.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends one length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes (framing already accounted for by the caller).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked payload reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// One `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// One `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// One `i32`.
    pub fn i32(&mut self) -> Result<i32, SnapshotError> {
        Ok(self.u32()? as i32)
    }

    /// One bool (`0` or `1`; anything else is corrupt).
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// One length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| corrupt("invalid utf-8 in string"))
    }

    /// One element count: a `u32` sanity-bounded by the remaining payload
    /// (every encoded element is at least one byte), so a corrupted count
    /// fails typed instead of driving a huge allocation.
    pub fn count(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(corrupt("element count exceeds remaining payload"));
        }
        Ok(n)
    }

    /// Fails unless the payload was consumed exactly.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(corrupt("unconsumed payload bytes"));
        }
        Ok(())
    }
}

/// Assigns dense indices to every [`Symbol`] a payload references, so the
/// string table can be written once ahead of the payload (raw interner
/// ids are process-local and never serialized).
#[derive(Debug, Default)]
pub struct SymEncoder {
    ids: SymbolMap<u32>,
    order: Vec<Symbol>,
}

impl SymEncoder {
    /// An empty encoder.
    pub fn new() -> Self {
        SymEncoder::default()
    }

    /// The dense index of `s`, assigned on first reference.
    pub fn index_of(&mut self, s: Symbol) -> u32 {
        if let Some(&id) = self.ids.get(&s) {
            return id;
        }
        let id = self.order.len() as u32;
        self.ids.insert(s, id);
        self.order.push(s);
        id
    }

    /// Writes one symbol reference.
    pub fn sym(&mut self, s: Symbol, w: &mut Writer) {
        let id = self.index_of(s);
        w.u32(id);
    }

    /// Writes the string table (decode this *before* the payload that
    /// references it).
    pub fn write_table(&self, w: &mut Writer) {
        w.u32(self.order.len() as u32);
        for s in &self.order {
            w.str(s.as_str());
        }
    }
}

/// Reads a [`SymEncoder`] string table and re-interns every string into
/// the current process, mapping dense indices to fresh symbols.
#[derive(Debug)]
pub struct SymDecoder {
    syms: Vec<Symbol>,
}

impl SymDecoder {
    /// Reads the string table.
    pub fn read_table(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = r.count()?;
        let mut syms = Vec::with_capacity(n);
        for _ in 0..n {
            syms.push(Symbol::intern(r.str()?));
        }
        Ok(SymDecoder { syms })
    }

    /// Reads one symbol reference.
    pub fn sym(&self, r: &mut Reader<'_>) -> Result<Symbol, SnapshotError> {
        let idx = r.u32()? as usize;
        self.syms
            .get(idx)
            .copied()
            .ok_or_else(|| corrupt(format!("symbol index {idx} out of range")))
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True iff the table is empty.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Tokens and position sets
// ---------------------------------------------------------------------------

fn encode_token(t: Token, w: &mut Writer) {
    match t {
        Token::Upper => w.u8(0),
        Token::Lower => w.u8(1),
        Token::Alpha => w.u8(2),
        Token::Num => w.u8(3),
        Token::AlphNum => w.u8(4),
        Token::DecNum => w.u8(5),
        Token::Whitespace => w.u8(6),
        Token::Punct => w.u8(7),
        Token::Start => w.u8(8),
        Token::End => w.u8(9),
        Token::Special(c) => {
            w.u8(10);
            w.u32(c as u32);
        }
    }
}

fn decode_token(r: &mut Reader<'_>) -> Result<Token, SnapshotError> {
    Ok(match r.u8()? {
        0 => Token::Upper,
        1 => Token::Lower,
        2 => Token::Alpha,
        3 => Token::Num,
        4 => Token::AlphNum,
        5 => Token::DecNum,
        6 => Token::Whitespace,
        7 => Token::Punct,
        8 => Token::Start,
        9 => Token::End,
        10 => Token::Special(
            char::from_u32(r.u32()?).ok_or_else(|| corrupt("invalid special-token char"))?,
        ),
        other => return Err(corrupt(format!("unknown token tag {other}"))),
    })
}

fn encode_regex_seq(seq: &RegexSeq, w: &mut Writer) {
    w.u32(seq.0.len() as u32);
    for &t in &seq.0 {
        encode_token(t, w);
    }
}

fn decode_regex_seq(r: &mut Reader<'_>) -> Result<RegexSeq, SnapshotError> {
    let n = r.count()?;
    let mut tokens = Vec::with_capacity(n);
    for _ in 0..n {
        tokens.push(decode_token(r)?);
    }
    Ok(RegexSeq(tokens))
}

fn encode_pos(p: &PosSet, w: &mut Writer) {
    match p {
        PosSet::CPos(k) => {
            w.u8(0);
            w.i32(*k);
        }
        PosSet::Pos { r1s, r2s, cs } => {
            w.u8(1);
            for rs in [r1s, r2s] {
                w.u32(rs.len() as u32);
                for seq in rs {
                    encode_regex_seq(seq, w);
                }
            }
            w.u32(cs.len() as u32);
            for &c in cs {
                w.i32(c);
            }
        }
    }
}

fn decode_pos(r: &mut Reader<'_>) -> Result<PosSet, SnapshotError> {
    Ok(match r.u8()? {
        0 => PosSet::CPos(r.i32()?),
        1 => {
            let mut lists = [Vec::new(), Vec::new()];
            for list in &mut lists {
                let n = r.count()?;
                list.reserve(n);
                for _ in 0..n {
                    list.push(decode_regex_seq(r)?);
                }
            }
            let [r1s, r2s] = lists;
            let n = r.count()?;
            let mut cs = Vec::with_capacity(n);
            for _ in 0..n {
                cs.push(r.i32()?);
            }
            PosSet::Pos { r1s, r2s, cs }
        }
        other => return Err(corrupt(format!("unknown pos-set tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

fn encode_id_list(list: &[u32], w: &mut Writer) {
    w.u32(list.len() as u32);
    for &id in list {
        w.u32(id);
    }
}

fn decode_id_list(
    r: &mut Reader<'_>,
    bound: usize,
    what: &str,
) -> Result<Box<[u32]>, SnapshotError> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u32()?;
        if id as usize >= bound {
            return Err(corrupt(format!("{what} id {id} out of range (< {bound})")));
        }
        out.push(id);
    }
    Ok(out.into())
}

impl Arena {
    /// Writes every store as a flat table, in dependency order. Symbols go
    /// through `sym`; all intra-arena references are plain ids (valid by
    /// construction: children intern before parents).
    pub fn encode(&self, w: &mut Writer, sym: &mut SymEncoder) {
        w.u32(self.pos.len() as u32);
        for p in self.pos.iter() {
            encode_pos(p, w);
        }
        w.u32(self.pos_lists.len() as u32);
        for list in self.pos_lists.iter() {
            encode_id_list(list, w);
        }
        w.u32(self.atoms.len() as u32);
        for atom in self.atoms.iter() {
            match atom {
                AtomRepr::Const(s) => {
                    w.u8(0);
                    sym.sym(*s, w);
                }
                AtomRepr::Whole(n) => {
                    w.u8(1);
                    w.u32(*n);
                }
                AtomRepr::SubStr { src, p1, p2 } => {
                    w.u8(2);
                    w.u32(*src);
                    w.u32(p1.0);
                    w.u32(p2.0);
                }
            }
        }
        w.u32(self.atom_lists.len() as u32);
        for list in self.atom_lists.iter() {
            encode_id_list(list, w);
        }
        w.u32(self.dags.len() as u32);
        for dag in self.dags.iter() {
            w.u32(dag.num_nodes);
            w.u32(dag.source);
            w.u32(dag.target);
            w.u32(dag.edges.len() as u32);
            for &(a, b, atoms) in dag.edges.iter() {
                w.u32(a);
                w.u32(b);
                w.u32(atoms.0);
            }
        }
        w.u32(self.progs.len() as u32);
        for prog in self.progs.iter() {
            match prog {
                ProgRepr::Var(v) => {
                    w.u8(0);
                    w.u32(*v);
                }
                ProgRepr::Select { col, table, conds } => {
                    w.u8(1);
                    w.u32(*col);
                    w.u32(*table);
                    w.u32(conds.len() as u32);
                    for cond in conds.iter() {
                        w.u32(cond.key);
                        w.u32(cond.preds.len() as u32);
                        for &(col, dag) in cond.preds.iter() {
                            w.u32(col);
                            w.u32(dag.0);
                        }
                    }
                }
            }
        }
        w.u32(self.sym_lists.len() as u32);
        for list in self.sym_lists.iter() {
            w.u32(list.len() as u32);
            for &s in list.iter() {
                sym.sym(s, w);
            }
        }
        w.u32(self.nodes.len() as u32);
        for node in self.nodes.iter() {
            w.u32(node.vals.0);
            w.u32(node.progs.len() as u32);
            for &ProgId(p) in node.progs.iter() {
                w.u32(p);
            }
        }
        w.u32(self.structs.len() as u32);
        for st in self.structs.iter() {
            w.u32(st.nodes.len() as u32);
            for &crate::NodeRepId(n) in st.nodes.iter() {
                w.u32(n);
            }
            match st.top {
                None => w.u32(0),
                Some(DagId(d)) => w.u32(d + 1),
            }
        }
    }

    /// Reads an arena written by [`Arena::encode`], re-hash-consing every
    /// value (the snapshot is deduplicated by construction; a duplicate is
    /// corruption) and bounds-checking every cross-store reference.
    pub fn decode(r: &mut Reader<'_>, sym: &SymDecoder) -> Result<Arena, SnapshotError> {
        let mut arena = Arena::new();
        let n = r.count()?;
        for i in 0..n {
            let p = decode_pos(r)?;
            intern_checked(&mut arena.pos, p, i, "pos")?;
        }
        let n = r.count()?;
        for i in 0..n {
            let list = decode_id_list(r, arena.pos.len(), "pos")?;
            intern_checked(&mut arena.pos_lists, list, i, "pos list")?;
        }
        let n = r.count()?;
        for i in 0..n {
            let atom = match r.u8()? {
                0 => AtomRepr::Const(sym.sym(r)?),
                1 => AtomRepr::Whole(r.u32()?),
                2 => {
                    let src = r.u32()?;
                    let p1 = r.u32()?;
                    let p2 = r.u32()?;
                    for p in [p1, p2] {
                        if p as usize >= arena.pos_lists.len() {
                            return Err(corrupt(format!("pos-list id {p} out of range")));
                        }
                    }
                    AtomRepr::SubStr {
                        src,
                        p1: PosListId(p1),
                        p2: PosListId(p2),
                    }
                }
                other => return Err(corrupt(format!("unknown atom tag {other}"))),
            };
            intern_checked(&mut arena.atoms, atom, i, "atom")?;
        }
        let n = r.count()?;
        for i in 0..n {
            let list = decode_id_list(r, arena.atoms.len(), "atom")?;
            intern_checked(&mut arena.atom_lists, list, i, "atom list")?;
        }
        let n = r.count()?;
        for i in 0..n {
            let num_nodes = r.u32()?;
            let source = r.u32()?;
            let target = r.u32()?;
            if num_nodes == 0 || source >= num_nodes || target >= num_nodes {
                return Err(corrupt("dag source/target out of range"));
            }
            let n_edges = r.count()?;
            let mut edges = Vec::with_capacity(n_edges);
            let mut last_key = None;
            for _ in 0..n_edges {
                let a = r.u32()?;
                let b = r.u32()?;
                let atoms = r.u32()?;
                if a >= b || b >= num_nodes {
                    return Err(corrupt("dag edge endpoints out of range"));
                }
                if last_key.is_some_and(|k| k >= (a, b)) {
                    return Err(corrupt("dag edges out of order"));
                }
                last_key = Some((a, b));
                if atoms as usize >= arena.atom_lists.len() {
                    return Err(corrupt(format!("atom-list id {atoms} out of range")));
                }
                edges.push((a, b, AtomListId(atoms)));
            }
            let dag = DagRepr {
                num_nodes,
                source,
                target,
                edges: edges.into(),
            };
            intern_checked(&mut arena.dags, dag, i, "dag")?;
        }
        let n = r.count()?;
        for i in 0..n {
            let prog = match r.u8()? {
                0 => ProgRepr::Var(r.u32()?),
                1 => {
                    let col = r.u32()?;
                    let table = r.u32()?;
                    let n_conds = r.count()?;
                    let mut conds = Vec::with_capacity(n_conds);
                    for _ in 0..n_conds {
                        let key = r.u32()?;
                        let n_preds = r.count()?;
                        let mut preds = Vec::with_capacity(n_preds);
                        for _ in 0..n_preds {
                            let col = r.u32()?;
                            let dag = r.u32()?;
                            if dag as usize >= arena.dags.len() {
                                return Err(corrupt(format!("dag id {dag} out of range")));
                            }
                            preds.push((col, DagId(dag)));
                        }
                        conds.push(CondRepr {
                            key,
                            preds: preds.into(),
                        });
                    }
                    ProgRepr::Select {
                        col,
                        table,
                        conds: conds.into(),
                    }
                }
                other => return Err(corrupt(format!("unknown prog tag {other}"))),
            };
            intern_checked(&mut arena.progs, prog, i, "prog")?;
        }
        let n = r.count()?;
        for i in 0..n {
            let len = r.count()?;
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                list.push(sym.sym(r)?);
            }
            intern_checked(&mut arena.sym_lists, list.into_boxed_slice(), i, "sym list")?;
        }
        let n = r.count()?;
        for i in 0..n {
            let vals = r.u32()?;
            if vals as usize >= arena.sym_lists.len() {
                return Err(corrupt(format!("sym-list id {vals} out of range")));
            }
            let progs = decode_id_list(r, arena.progs.len(), "prog")?;
            let node = NodeRepr {
                vals: SymListId(vals),
                progs: progs.iter().map(|&p| ProgId(p)).collect(),
            };
            intern_checked(&mut arena.nodes, node, i, "node")?;
        }
        let n = r.count()?;
        for i in 0..n {
            let nodes = decode_id_list(r, arena.nodes.len(), "node")?;
            let top = match r.u32()? {
                0 => None,
                d => {
                    let d = d - 1;
                    if d as usize >= arena.dags.len() {
                        return Err(corrupt(format!("top dag id {d} out of range")));
                    }
                    Some(DagId(d))
                }
            };
            let st = crate::StructRepr {
                nodes: nodes.iter().map(|&id| crate::NodeRepId(id)).collect(),
                top,
            };
            intern_checked(&mut arena.structs, st, i, "struct")?;
        }
        Ok(arena)
    }

    /// Checks that every node reference inside `dag` (whole-source and
    /// substring atoms) stays below `num_struct_nodes` — the bound a
    /// containing structure or generation snapshot imposes.
    pub fn validate_dag_nodes(
        &self,
        id: DagId,
        num_struct_nodes: u32,
    ) -> Result<(), SnapshotError> {
        if id.0 as usize >= self.dags.len() {
            return Err(corrupt(format!("dag id {} out of range", id.0)));
        }
        let dag = self.dags.get(id.0);
        for &(_, _, atoms) in dag.edges.iter() {
            for &atom in self.atom_lists.get(atoms.0).iter() {
                let node = match self.atoms.get(atom) {
                    AtomRepr::Const(_) => continue,
                    AtomRepr::Whole(n) => *n,
                    AtomRepr::SubStr { src, .. } => *src,
                };
                if node >= num_struct_nodes {
                    return Err(corrupt(format!(
                        "atom references node {node}, structure has {num_struct_nodes}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Semantic validation of one restored structure: every atom's node
    /// reference (top DAG and all nested predicate DAGs) stays inside the
    /// structure's node list, and every node carries the same number of
    /// per-example values. Catches crafted files the frame checksum and
    /// the id-bounds checks of [`Arena::decode`] cannot.
    pub fn validate_struct(&self, id: StructId) -> Result<(), SnapshotError> {
        if id.0 as usize >= self.structs.len() {
            return Err(corrupt(format!("struct id {} out of range", id.0)));
        }
        let st = self.structs.get(id.0).clone();
        let n = st.nodes.len() as u32;
        if let Some(top) = st.top {
            self.validate_dag_nodes(top, n)?;
        }
        let mut vals_len = None;
        for &node in st.nodes.iter() {
            let node = self.nodes.get(node.0);
            let len = self.sym_lists.get(node.vals.0).len();
            if *vals_len.get_or_insert(len) != len {
                return Err(corrupt("nodes disagree on per-example value count"));
            }
            for &prog in node.progs.iter() {
                if let ProgRepr::Select { conds, .. } = self.progs.get(prog.0) {
                    for cond in conds.iter() {
                        for &(_, dag) in cond.preds.iter() {
                            self.validate_dag_nodes(dag, n)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

fn intern_checked<T: Eq + std::hash::Hash + Clone>(
    store: &mut crate::Store<T>,
    value: T,
    expected: usize,
    what: &str,
) -> Result<(), SnapshotError> {
    let id = store.intern(value);
    if id as usize != expected {
        return Err(corrupt(format!(
            "{what} table not hash-consed (duplicate at index {expected})"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

/// Writes the database: every table's name, columns, declared candidate
/// keys and live rows (cells as symbol references), in [`TableId`]
/// (`sst_tables::TableId`) order — so table ids survive the round trip
/// and memo entries referencing them stay meaningful.
pub fn encode_database(db: &Database, w: &mut Writer, sym: &mut SymEncoder) {
    w.u32(db.len() as u32);
    for (_, table) in db.iter() {
        w.str(table.name());
        let columns = table.columns();
        w.u32(columns.len() as u32);
        for col in columns {
            w.str(col);
        }
        let keys = table.candidate_keys();
        w.u32(keys.len() as u32);
        for key in keys {
            w.u32(key.len() as u32);
            for &c in key {
                w.u32(c);
            }
        }
        w.u32(table.len() as u32);
        for row in table.row_ids() {
            for c in 0..columns.len() {
                sym.sym(table.cell_sym(c as ColId, row), w);
            }
        }
    }
}

/// Reads a database written by [`encode_database`]. Indexes are rebuilt
/// from the rows (they are derived state), candidate keys are restored
/// exactly as declared, and the database draws a **fresh** mutation
/// epoch — snapshot epochs are process-local and never serialized.
pub fn decode_database(r: &mut Reader<'_>, sym: &SymDecoder) -> Result<Database, SnapshotError> {
    let n_tables = r.count()?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name = r.str()?.to_string();
        let n_cols = r.count()?;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            columns.push(r.str()?.to_string());
        }
        let n_keys = r.count()?;
        let mut keys = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            let width = r.count()?;
            let mut key = Vec::with_capacity(width);
            for _ in 0..width {
                let c = r.u32()?;
                if c as usize >= n_cols {
                    return Err(corrupt(format!("key column {c} out of range")));
                }
                key.push(c as ColId);
            }
            keys.push(key);
        }
        let n_rows = r.count()?;
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                row.push(sym.sym(r)?.as_str().to_string());
            }
            rows.push(row);
        }
        let table = Table::from_parts(name, columns, rows, keys)
            .map_err(|e| corrupt(format!("table rejected: {e}")))?;
        tables.push(table);
    }
    Database::from_tables(tables).map_err(|e| corrupt(format!("database rejected: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let sealed = seal_snapshot(b"hello payload");
        assert_eq!(open_snapshot(&sealed).unwrap(), b"hello payload");
    }

    #[test]
    fn frame_rejects_tampering_typed() {
        let sealed = seal_snapshot(b"hello payload");
        // Truncations at every boundary.
        for cut in [0, 4, 11, 19, sealed.len() - 1] {
            let err = open_snapshot(&sealed[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "cut at {cut}: {err}"
            );
        }
        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xff;
        assert_eq!(open_snapshot(&bad).unwrap_err(), SnapshotError::BadMagic);
        // Future version.
        let mut future = sealed.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            open_snapshot(&future).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
        // Payload bit flip fails the checksum.
        let mut flipped = sealed.clone();
        flipped[22] ^= 0x01;
        assert!(matches!(
            open_snapshot(&flipped).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        // Trailing garbage.
        let mut long = sealed.clone();
        long.push(0);
        assert!(matches!(
            open_snapshot(&long).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn symbols_round_trip_densely() {
        let mut w = Writer::new();
        let mut enc = SymEncoder::new();
        let syms = [
            Symbol::intern("naïve"),
            Symbol::intern(""),
            Symbol::intern("naïve"),
            Symbol::intern("b"),
        ];
        let mut body = Writer::new();
        for &s in &syms {
            enc.sym(s, &mut body);
        }
        enc.write_table(&mut w);
        w.raw(&body.into_bytes());
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let dec = SymDecoder::read_table(&mut r).unwrap();
        assert_eq!(dec.len(), 3, "repeat referenced once");
        for &s in &syms {
            assert_eq!(dec.sym(&mut r).unwrap(), s);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn database_round_trips() {
        let db = Database::from_tables(vec![
            Table::new(
                "CutePets",
                vec!["Id", "Name", "Où"],
                vec![
                    vec!["p1", "Rex", "Lyon"],
                    vec!["p2", "", "Paris"],
                    vec!["p3", "Rex", ""],
                ],
            )
            .unwrap(),
            Table::new("K", vec!["A"], vec![vec!["x"]]).unwrap(),
        ])
        .unwrap();
        let mut body = Writer::new();
        let mut enc = SymEncoder::new();
        encode_database(&db, &mut body, &mut enc);
        let mut w = Writer::new();
        enc.write_table(&mut w);
        w.raw(&body.into_bytes());
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let dec = SymDecoder::read_table(&mut r).unwrap();
        let restored = decode_database(&mut r, &dec).unwrap();
        r.expect_end().unwrap();
        assert_eq!(restored.len(), db.len());
        for (id, table) in db.iter() {
            let rt = restored.table(id);
            assert_eq!(rt.name(), table.name());
            assert_eq!(rt.columns(), table.columns());
            assert_eq!(rt.candidate_keys(), table.candidate_keys());
            assert_eq!(rt.len(), table.len());
            for (a, b) in rt.row_ids().zip(table.row_ids()) {
                for c in 0..table.columns().len() as ColId {
                    assert_eq!(rt.cell_sym(c, a), table.cell_sym(c, b));
                }
            }
        }
        assert_ne!(
            restored.epoch(),
            db.epoch(),
            "restored db draws a fresh epoch"
        );
    }
}
