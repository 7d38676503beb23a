//! Fact storage: interned symbols, indexed relations, Skolem table.
//!
//! The [`Database`] is the *extensional component* of a knowledge graph in
//! the paper's terminology — plus, after running an [`crate::Engine`], the
//! derived intensional facts. Relations deduplicate tuples (set semantics,
//! like Vadalog's chase with isomorphism checks) and maintain hash indexes
//! on the column subsets the compiled rule plans need.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use crate::error::{DatalogError, Result};
use crate::fx::FxHashMap;
use crate::value::{Const, Tuple};

/// Interner for string constants.
///
/// Entries are shared `Arc<str>` allocations, so cloning the table — which
/// [`Engine::query`](crate::Engine::query) does for every scratch copy —
/// bumps refcounts instead of reallocating every interned string.
#[derive(Default, Debug, Clone)]
pub struct SymbolTable {
    names: Vec<Arc<str>>,
    index: FxHashMap<Arc<str>, u32>,
}

impl SymbolTable {
    /// Interns a string, returning its symbol id.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        let shared: Arc<str> = Arc::from(s);
        self.names.push(shared.clone());
        self.index.insert(shared, id);
        id
    }

    /// Resolves a symbol id to its string.
    pub fn resolve(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Id of an already-interned string, without interning it.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no symbols are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned strings in interning order (id = position). Snapshot
    /// writers dump this verbatim so a reload re-interns every symbol to
    /// its original id — the property that makes recovery byte-faithful
    /// (round sorts compare `Const::Sym` by id, and aggregate emission
    /// order follows the sorts).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> {
        self.names.iter().map(|n| &**n)
    }
}

/// Deterministic, injective OID invention (Skolem) table.
///
/// Distinct `(functor, args)` pairs receive distinct sequential null ids,
/// realizing the paper's three properties: determinism (same input → same
/// OID), injectivity (no two inputs share an OID), and disjoint ranges
/// (different functors never collide, because the functor is part of the
/// key).
#[derive(Default, Debug, Clone)]
pub struct SkolemTable {
    map: FxHashMap<(u32, Tuple), u64>,
    /// Reverse map, parallel to the sequential ids: `defs[id] = (functor,
    /// args)`. Lets nulls be rendered by their *structural* definition,
    /// which is stable across evaluations even though the numeric ids
    /// depend on invention order.
    defs: Vec<(u32, Tuple)>,
}

impl SkolemTable {
    /// Returns the OID for `functor(args)`, inventing one if new.
    pub fn apply(&mut self, functor: u32, args: &[Const]) -> u64 {
        let next = self.map.len() as u64;
        match self.map.entry((functor, args.into())) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                let key = v.key().clone();
                self.defs.push(key);
                *v.insert(next)
            }
        }
    }

    /// The `(functor, args)` pair a null id was invented for.
    pub fn definition(&self, id: u64) -> Option<(u32, &[Const])> {
        self.defs.get(id as usize).map(|(f, args)| (*f, &args[..]))
    }

    /// Number of invented OIDs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no OIDs have been invented.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Provenance of a derived fact: which rule fired on which parent facts.
/// The `Ord` derive (rule, then parents) gives derivations a canonical
/// order within a fixpoint round.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProvEntry {
    /// Index of the rule in the program.
    pub rule: u32,
    /// Parent facts as `(predicate, row)` pairs.
    pub parents: Vec<(u32, u32)>,
}

/// Frozen column-major image of a relation: one contiguous strip per
/// column, plus CSR-style adjacency lists for the probe keys the
/// compiled plans use (single- or multi-column). Built by
/// [`Relation::freeze_columnar`] for relations that are *stable* during
/// a stratum (no rule head writes them), shared by `Arc` so cloning a
/// database stays a refcount bump, and invalidated by any mutation.
#[derive(Debug)]
pub(crate) struct Columnar {
    /// `cols[c][row]` — per-column strips; scans touch only the columns
    /// their unification ops actually read, over contiguous memory.
    cols: Vec<Box<[Const]>>,
    /// Adjacency per probe shape: column bitmask → CSR over those columns.
    csr: FxHashMap<u64, Csr>,
}

impl Columnar {
    /// The strip of column `c`.
    pub(crate) fn col(&self, c: usize) -> &[Const] {
        &self.cols[c]
    }

    /// The adjacency for `mask`, if one was frozen.
    pub(crate) fn csr(&self, mask: u64) -> Option<&Csr> {
        self.csr.get(&mask)
    }
}

/// Compressed sparse rows over one or more columns: distinct keys
/// (flattened `width` consts each, sorted by the lexicographic total
/// [`Const`] order), per-key offsets, and a flat row array grouped by
/// key. Within a key, rows keep insertion order — the same enumeration
/// order a hash index produces, which the byte-identity contract needs.
#[derive(Debug)]
pub(crate) struct Csr {
    width: usize,
    keys: Vec<Const>,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl Csr {
    /// Builds the adjacency over the key columns listed in `key_cols`
    /// (ascending mask-bit order — the same projection order as
    /// [`key_of`]) for `n` rows of the given strips.
    fn build(strips: &[Box<[Const]>], key_cols: &[usize], n: usize) -> Csr {
        let width = key_cols.len();
        let key_at = |row: u32| key_cols.iter().map(move |&c| strips[c][row as usize]);
        let mut order: Vec<u32> = (0..n as u32).collect();
        // Stable sort: rows arrive in increasing row id, so equal keys
        // keep insertion order — identical to a hash index's push order.
        order.sort_by(|&a, &b| key_at(a).cmp(key_at(b)));
        let mut keys: Vec<Const> = Vec::new();
        let mut offsets = vec![0u32];
        let mut rows = Vec::with_capacity(n);
        for row in order {
            let prev = keys.len().wrapping_sub(width);
            if keys.is_empty() || !key_at(row).eq(keys[prev..].iter().copied()) {
                if !keys.is_empty() {
                    offsets.push(rows.len() as u32);
                }
                keys.extend(key_at(row));
            }
            rows.push(row);
        }
        offsets.push(rows.len() as u32);
        Csr {
            width,
            keys,
            offsets,
            rows,
        }
    }

    fn empty(width: usize) -> Csr {
        Csr {
            width,
            keys: Vec::new(),
            offsets: vec![0, 0],
            rows: Vec::new(),
        }
    }

    /// Rows whose key-column projection equals `key` (given in ascending
    /// mask-bit order), in insertion order.
    pub(crate) fn rows_for(&self, key: &[Const]) -> &[u32] {
        debug_assert_eq!(key.len(), self.width);
        let n = self.keys.len().checked_div(self.width).unwrap_or(0);
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let k = &self.keys[mid * self.width..(mid + 1) * self.width];
            match k.cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    return &self.rows[self.offsets[mid] as usize..self.offsets[mid + 1] as usize];
                }
            }
        }
        &[]
    }
}

/// A single relation: deduplicated tuples plus hash indexes.
#[derive(Default, Debug, Clone)]
pub struct Relation {
    /// Tuples in insertion order (row id = position).
    tuples: Vec<Tuple>,
    /// Tuple → row id (dedup).
    seen: FxHashMap<Tuple, u32>,
    /// Registered indexes: column bitmask → key → rows.
    indexes: FxHashMap<u64, FxHashMap<Tuple, Vec<u32>>>,
    /// Frozen columnar image (stable relations only); `None` after any
    /// mutation. See [`Columnar`].
    columnar: Option<Arc<Columnar>>,
    /// Optional provenance parallel to `tuples`.
    prov: Vec<Option<ProvEntry>>,
    /// Whether provenance is being recorded.
    track_prov: bool,
}

impl Relation {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuple at `row`.
    pub fn row(&self, row: u32) -> &[Const] {
        &self.tuples[row as usize]
    }

    /// All tuples in insertion order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Const]> {
        self.tuples.iter().map(|t| &t[..])
    }

    /// Row id of a tuple if present.
    pub fn find(&self, tuple: &[Const]) -> Option<u32> {
        self.seen.get(tuple).copied()
    }

    /// Provenance of a row, if recorded.
    pub fn provenance(&self, row: u32) -> Option<&ProvEntry> {
        self.prov.get(row as usize).and_then(|p| p.as_ref())
    }

    /// Rough heap footprint in bytes: tuple storage, the dedup map, hash
    /// indexes and any frozen columnar image. A capacity-planning
    /// estimate, not an allocator measurement.
    pub fn approx_heap_bytes(&self) -> usize {
        const CONST_BYTES: usize = std::mem::size_of::<Const>();
        let arity = self.tuples.first().map_or(0, |t| t.len());
        let tuple_bytes = arity * CONST_BYTES + 16; // Arc<[Const]> header
        let mut total = self.tuples.len() * (tuple_bytes + 8); // + seen ref
        total += self.seen.len() * 16; // map slots
        for index in self.indexes.values() {
            total += index.len() * (tuple_bytes + 32);
            total += self.tuples.len() * 4; // row ids across buckets
        }
        if let Some(c) = &self.columnar {
            total += c.cols.len() * self.tuples.len() * CONST_BYTES;
            for csr in c.csr.values() {
                total += csr.keys.len() * CONST_BYTES + csr.rows.len() * 4;
            }
        }
        total
    }

    pub(crate) fn set_track_prov(&mut self, on: bool) {
        self.track_prov = on;
        if on && self.prov.len() < self.tuples.len() {
            self.prov.resize(self.tuples.len(), None);
        }
    }

    /// Registers an index over the columns set in `mask` (bit i = column i)
    /// and builds it over the current contents.
    pub(crate) fn register_index(&mut self, mask: u64) {
        if mask == 0 || self.indexes.contains_key(&mask) {
            return;
        }
        let mut index: FxHashMap<Tuple, Vec<u32>> = FxHashMap::default();
        for (row, t) in self.tuples.iter().enumerate() {
            index.entry(key_of(t, mask)).or_default().push(row as u32);
        }
        self.indexes.insert(mask, index);
    }

    /// Rows whose `mask`-projection equals `key`. The index must have been
    /// registered.
    pub(crate) fn probe(&self, mask: u64, key: &[Const]) -> &[u32] {
        static EMPTY: Vec<u32> = Vec::new();
        self.indexes
            .get(&mask)
            .expect("index not registered")
            .get(key)
            .unwrap_or(&EMPTY)
    }

    /// Freezes a columnar image of the current contents: per-column
    /// strips, plus a CSR adjacency list for every mask in `csr_masks`
    /// (single- or multi-column keys). Idempotent while the contents are
    /// unchanged and the requested masks are covered; any mutation drops
    /// the image.
    pub(crate) fn freeze_columnar(&mut self, csr_masks: &[u64]) {
        if let Some(c) = &self.columnar {
            if csr_masks.iter().all(|m| c.csr.contains_key(m)) {
                return;
            }
        }
        let arity = self.tuples.first().map_or(0, |t| t.len());
        let mut cols: Vec<Box<[Const]>> = Vec::with_capacity(arity);
        for c in 0..arity {
            cols.push(self.tuples.iter().map(|t| t[c]).collect());
        }
        let mut csr = FxHashMap::default();
        for &mask in csr_masks {
            let key_cols: Vec<usize> = (0..64).filter(|i| mask & (1u64 << i) != 0).collect();
            // Out-of-range columns (empty relation) get an empty CSR so a
            // requested mask always answers — the hash index it replaces
            // may never have been registered.
            let csr_for = if key_cols.iter().all(|&c| c < cols.len()) {
                Csr::build(&cols, &key_cols, self.tuples.len())
            } else {
                Csr::empty(key_cols.len())
            };
            csr.insert(mask, csr_for);
        }
        self.columnar = Some(Arc::new(Columnar { cols, csr }));
    }

    /// The frozen columnar image, if current.
    pub(crate) fn columnar(&self) -> Option<&Columnar> {
        self.columnar.as_deref()
    }

    /// Rows whose `mask`-projection equals `key`, preferring the frozen
    /// CSR when one covers the mask and falling back to the hash index
    /// (which must then be registered).
    pub(crate) fn lookup_rows(&self, mask: u64, key: &[Const]) -> &[u32] {
        if let Some(c) = &self.columnar {
            if let Some(csr) = c.csr.get(&mask) {
                return csr.rows_for(key);
            }
        }
        self.probe(mask, key)
    }

    /// Inserts a tuple; returns its row id and whether it was new.
    pub(crate) fn insert(&mut self, tuple: Tuple, prov: Option<ProvEntry>) -> (u32, bool) {
        if let Some(&row) = self.seen.get(&tuple) {
            return (row, false);
        }
        self.columnar = None;
        let row = self.tuples.len() as u32;
        for (mask, index) in self.indexes.iter_mut() {
            index.entry(key_of(&tuple, *mask)).or_default().push(row);
        }
        self.seen.insert(tuple.clone(), row);
        self.tuples.push(tuple);
        if self.track_prov {
            self.prov.push(prov);
        }
        (row, true)
    }

    /// Removes every tuple in `del`, compacting the surviving rows in
    /// their original order — tombstone-free: the dedup map, all
    /// registered indexes and any recorded provenance are rebuilt so row
    /// ids stay dense. Returns how many rows were actually removed.
    pub(crate) fn remove_tuples(&mut self, del: &crate::fx::FxHashSet<Tuple>) -> usize {
        if del.is_empty() {
            return 0;
        }
        let masks: Vec<u64> = self.indexes.keys().copied().collect();
        self.columnar = None;
        let old_tuples = std::mem::take(&mut self.tuples);
        let mut old_prov = std::mem::take(&mut self.prov);
        self.seen.clear();
        self.indexes.clear();
        let mut removed = 0usize;
        for (i, t) in old_tuples.into_iter().enumerate() {
            if del.contains(&t) {
                removed += 1;
                continue;
            }
            let row = self.tuples.len() as u32;
            self.seen.insert(t.clone(), row);
            self.tuples.push(t);
            if self.track_prov {
                self.prov.push(old_prov.get_mut(i).and_then(Option::take));
            }
        }
        for m in masks {
            self.register_index(m);
        }
        removed
    }

    /// Replaces the contents with `rows` (used by `@post`); indexes are
    /// rebuilt, provenance is dropped (post-processing is a projection of
    /// the least fixpoint, not a derivation).
    pub(crate) fn replace_all(&mut self, rows: Vec<Tuple>) {
        let masks: Vec<u64> = self.indexes.keys().copied().collect();
        self.columnar = None;
        self.tuples.clear();
        self.seen.clear();
        self.indexes.clear();
        self.prov.clear();
        for t in rows {
            if !self.seen.contains_key(&t) {
                let row = self.tuples.len() as u32;
                self.seen.insert(t.clone(), row);
                self.tuples.push(t);
                if self.track_prov {
                    self.prov.push(None);
                }
            }
        }
        for m in masks {
            self.register_index(m);
        }
    }
}

pub(crate) fn key_of(tuple: &[Const], mask: u64) -> Tuple {
    let mut key = Vec::with_capacity(mask.count_ones() as usize);
    for (i, c) in tuple.iter().enumerate() {
        if mask & (1u64 << i) != 0 {
            key.push(*c);
        }
    }
    key.into()
}

/// The fact store: predicates, relations, symbols and Skolem OIDs.
#[derive(Default, Debug, Clone)]
pub struct Database {
    pub(crate) symbols: SymbolTable,
    pub(crate) skolems: SkolemTable,
    // `Arc<str>` names: cloning the predicate tables (every scratch copy
    // and serve-epoch snapshot) bumps refcounts instead of copying the
    // string bytes. `Arc<str>: Borrow<str>` keeps `&str` lookups working.
    pred_ids: FxHashMap<Arc<str>, u32>,
    pred_names: Vec<Arc<str>>,
    arities: Vec<Option<usize>>,
    pub(crate) relations: Vec<Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch copy for goal-directed evaluation: the symbol, Skolem and
    /// predicate tables are copied in full (ids stay aligned, canonical
    /// rendering works), but only the relations named in `keep` carry
    /// their rows — every other relation becomes an empty shell.
    ///
    /// Sound for evaluating any program whose mentioned predicates are
    /// all in `keep`: a fixpoint can only read or write relations its
    /// rules and directives mention, so the shells are never observed.
    /// Wide extensional relations outside the goal's cone (e.g. attribute
    /// tables) are what this skips — for point lookups they often
    /// dominate the cost of a full [`Clone`].
    pub(crate) fn scratch_for(&self, keep: &crate::fx::FxHashSet<String>) -> Database {
        Database {
            symbols: self.symbols.clone(),
            skolems: self.skolems.clone(),
            pred_ids: self.pred_ids.clone(),
            pred_names: self.pred_names.clone(),
            arities: self.arities.clone(),
            relations: self
                .relations
                .iter()
                .zip(&self.pred_names)
                .map(|(r, name)| {
                    if keep.contains(&**name) {
                        r.clone()
                    } else {
                        Relation::default()
                    }
                })
                .collect(),
        }
    }

    /// Public projection lens over [`Database::scratch_for`]: a copy of
    /// the database whose interning tables are shared in full but whose
    /// relations carry rows only for the predicates named in `keep`.
    /// The serving layer uses this to strip derived relations off an
    /// epoch snapshot before re-running a provenance-enabled engine for
    /// derivation-tree explanations.
    pub fn project(&self, keep: impl IntoIterator<Item = impl AsRef<str>>) -> Database {
        let set: crate::fx::FxHashSet<String> =
            keep.into_iter().map(|s| s.as_ref().to_owned()).collect();
        self.scratch_for(&set)
    }

    /// Read-only view of the symbol interner. The durable-storage layer
    /// iterates it in interning order when writing snapshots, so a reload
    /// assigns every symbol its original id.
    pub fn symbol_table(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Interns a string constant and returns it as a [`Const`].
    pub fn sym(&mut self, s: &str) -> Const {
        Const::Sym(self.symbols.intern(s))
    }

    /// Looks up an interned string constant without interning it —
    /// `None` means the string occurs nowhere in the database.
    pub fn find_sym(&self, s: &str) -> Option<Const> {
        self.symbols.lookup(s).map(Const::Sym)
    }

    /// Resolves a symbol constant back to its string.
    pub fn resolve(&self, c: Const) -> Option<&str> {
        match c {
            Const::Sym(s) => Some(self.symbols.resolve(s)),
            _ => None,
        }
    }

    /// Renders any constant as a display string (symbols resolved).
    pub fn display(&self, c: Const) -> String {
        match c {
            Const::Sym(s) => self.symbols.resolve(s).to_owned(),
            Const::Int(i) => i.to_string(),
            Const::Float(f) => f.to_string(),
            Const::Bool(b) => b.to_string(),
            Const::Null(n) => format!("_:{n}"),
        }
    }

    /// Id of a predicate, interning it with unknown arity.
    pub fn pred_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.pred_ids.get(name) {
            return id;
        }
        let id = self.pred_names.len() as u32;
        let name: Arc<str> = Arc::from(name);
        self.pred_names.push(name.clone());
        self.pred_ids.insert(name, id);
        self.arities.push(None);
        self.relations.push(Relation::default());
        id
    }

    /// Looks up a predicate id without creating it.
    pub fn find_pred(&self, name: &str) -> Option<u32> {
        self.pred_ids.get(name).copied()
    }

    /// Name of a predicate id.
    pub fn pred_name(&self, id: u32) -> &str {
        &self.pred_names[id as usize]
    }

    /// Number of predicates.
    pub fn pred_count(&self) -> usize {
        self.pred_names.len()
    }

    /// Declared arity of a predicate, if any fact or resolved rule has
    /// fixed it yet.
    pub fn arity(&self, id: u32) -> Option<usize> {
        self.arities.get(id as usize).copied().flatten()
    }

    /// Interns a predicate and optionally pins its arity — the snapshot
    /// loader rebuilds the predicate table in id order with this before
    /// any rows arrive, so predicate ids survive recovery.
    pub fn declare_pred(&mut self, name: &str, arity: Option<usize>) -> Result<u32> {
        let id = self.pred_id(name);
        if let Some(a) = arity {
            self.check_arity(id, a)?;
        }
        Ok(id)
    }

    /// Rough heap footprint of the whole store in bytes: interned
    /// symbols, predicate tables and every relation's
    /// [`Relation::approx_heap_bytes`]. The capacity-planning lens for
    /// the 1M-register memory-budget target.
    pub fn approx_heap_bytes(&self) -> usize {
        let mut total = 0usize;
        for name in self.symbols.iter() {
            total += name.len() + 56; // Arc<str> header + index entry
        }
        for name in &self.pred_names {
            total += name.len() + 56;
        }
        for rel in &self.relations {
            total += rel.approx_heap_bytes();
        }
        total
    }

    /// The relation of a predicate (empty if the name is unknown).
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.find_pred(name).map(|p| &self.relations[p as usize])
    }

    pub(crate) fn relation_mut(&mut self, pred: u32) -> &mut Relation {
        &mut self.relations[pred as usize]
    }

    /// Checks/records the arity of a predicate.
    pub(crate) fn check_arity(&mut self, pred: u32, arity: usize) -> Result<()> {
        match self.arities[pred as usize] {
            None => {
                self.arities[pred as usize] = Some(arity);
                Ok(())
            }
            Some(a) if a == arity => Ok(()),
            Some(a) => Err(DatalogError::BadFact(format!(
                "predicate {} used with arity {arity}, previously {a}",
                self.pred_names[pred as usize]
            ))),
        }
    }

    /// Asserts a fully constructed fact; returns true if new.
    pub fn assert_fact(&mut self, pred: &str, tuple: &[Const]) -> Result<bool> {
        let p = self.pred_id(pred);
        self.check_arity(p, tuple.len())?;
        let (_, new) = self.relations[p as usize].insert(tuple.into(), None);
        Ok(new)
    }

    /// Retracts a fact if present; returns true if it was removed. The
    /// relation is compacted in place (order-preserving, tombstone-free).
    pub fn retract_fact(&mut self, pred: &str, tuple: &[Const]) -> bool {
        let Some(p) = self.find_pred(pred) else {
            return false;
        };
        let mut del = crate::fx::FxHashSet::default();
        del.insert(Tuple::from(tuple));
        self.relations[p as usize].remove_tuples(&del) > 0
    }

    /// Starts a fluent fact builder: `db.fact("own").sym("a").float(0.5).assert();`
    pub fn fact<'a>(&'a mut self, pred: &str) -> FactBuilder<'a> {
        FactBuilder {
            pred: pred.to_owned(),
            vals: Vec::new(),
            db: self,
        }
    }

    /// Asserts many all-string facts at once (test convenience).
    pub fn assert_str_facts(&mut self, pred: &str, facts: &[&[&str]]) {
        for f in facts {
            let tuple: Vec<Const> = f.iter().map(|s| self.sym(s)).collect();
            self.assert_fact(pred, &tuple).expect("consistent arity");
        }
    }

    /// True iff the relation contains the all-string tuple.
    pub fn contains_str_fact(&self, pred: &str, tuple: &[&str]) -> bool {
        let Some(rel) = self.relation(pred) else {
            return false;
        };
        let mut key = Vec::with_capacity(tuple.len());
        for s in tuple {
            match self.symbols.get(s) {
                Some(id) => key.push(Const::Sym(id)),
                None => return false,
            }
        }
        rel.find(&key).is_some()
    }

    /// Number of facts in a predicate (0 if unknown).
    pub fn fact_count(&self, pred: &str) -> usize {
        self.relation(pred).map(|r| r.len()).unwrap_or(0)
    }

    /// Total number of facts across all relations.
    pub fn total_facts(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// Queries a relation with a pattern: `None` positions are wildcards,
    /// `Some(c)` positions must match exactly. Returns the matching rows.
    ///
    /// ```
    /// use datalog::{Database, Const};
    /// let mut db = Database::new();
    /// db.fact("own").sym("a").sym("b").float(0.6).assert();
    /// db.fact("own").sym("a").sym("c").float(0.2).assert();
    /// let a = db.sym("a");
    /// let rows = db.query("own", &[Some(a), None, None]);
    /// assert_eq!(rows.len(), 2);
    /// let rows = db.query("own", &[None, None, Some(Const::Float(0.2))]);
    /// assert_eq!(rows.len(), 1);
    /// ```
    pub fn query(&self, pred: &str, pattern: &[Option<Const>]) -> Vec<&[Const]> {
        let Some(rel) = self.relation(pred) else {
            return Vec::new();
        };
        rel.rows()
            .filter(|row| {
                row.len() == pattern.len()
                    && row
                        .iter()
                        .zip(pattern)
                        .all(|(c, p)| p.is_none_or(|pc| *c == pc))
            })
            .collect()
    }

    /// Renders a constant canonically: like [`Database::display`], except
    /// labelled nulls are rendered by their structural Skolem definition
    /// (`functor(args…)`, recursively) instead of their numeric id. Two
    /// databases that derived the same facts in different orders assign
    /// different null ids but identical canonical renderings, so this is
    /// the right lens for set-level comparisons (isomorphism of labelled
    /// nulls).
    pub fn canonical(&self, c: Const) -> String {
        match c {
            Const::Null(n) => match self.skolems.definition(n) {
                Some((functor, args)) => {
                    let parts: Vec<String> = args.iter().map(|a| self.canonical(*a)).collect();
                    format!("{}({})", self.symbols.resolve(functor), parts.join(","))
                }
                None => format!("_:{n}"),
            },
            other => self.display(other),
        }
    }

    /// Renders a relation's tuples canonically (see [`Database::canonical`]),
    /// sorted. The comparison lens used by the incremental differential
    /// tests: set-identity modulo labelled-null renaming.
    pub fn dump_canonical(&self, pred: &str) -> Vec<String> {
        let Some(rel) = self.relation(pred) else {
            return Vec::new();
        };
        let mut out: Vec<String> = rel
            .rows()
            .map(|t| {
                let parts: Vec<String> = t.iter().map(|c| self.canonical(*c)).collect();
                parts.join(",")
            })
            .collect();
        out.sort();
        out
    }

    /// Renders a relation's tuples as display strings, sorted (test helper).
    pub fn dump(&self, pred: &str) -> Vec<String> {
        let Some(rel) = self.relation(pred) else {
            return Vec::new();
        };
        let mut out: Vec<String> = rel
            .rows()
            .map(|t| {
                let parts: Vec<String> = t.iter().map(|c| self.display(*c)).collect();
                parts.join(",")
            })
            .collect();
        out.sort();
        out
    }
}

/// Fluent fact construction, created by [`Database::fact`].
pub struct FactBuilder<'a> {
    pred: String,
    vals: Vec<Const>,
    db: &'a mut Database,
}

impl<'a> FactBuilder<'a> {
    /// Appends an interned string term.
    pub fn sym(mut self, s: &str) -> Self {
        let c = self.db.sym(s);
        self.vals.push(c);
        self
    }

    /// Appends an integer term.
    pub fn int(mut self, i: i64) -> Self {
        self.vals.push(Const::Int(i));
        self
    }

    /// Appends a float term.
    pub fn float(mut self, f: f64) -> Self {
        self.vals.push(Const::float(f));
        self
    }

    /// Appends a boolean term.
    pub fn bool(mut self, b: bool) -> Self {
        self.vals.push(Const::Bool(b));
        self
    }

    /// Appends an arbitrary constant.
    pub fn val(mut self, c: Const) -> Self {
        self.vals.push(c);
        self
    }

    /// Asserts the fact, panicking on arity mismatch (use
    /// [`FactBuilder::try_assert`] to handle errors).
    pub fn assert(self) {
        self.try_assert().expect("fact assertion failed");
    }

    /// Asserts the fact; returns whether it was new.
    pub fn try_assert(self) -> Result<bool> {
        let FactBuilder { pred, vals, db } = self;
        db.assert_fact(&pred, &vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_intern_and_resolve() {
        let mut t = SymbolTable::default();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        assert_ne!(a, b);
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.get("beta"), Some(b));
        assert_eq!(t.get("gamma"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn skolem_properties() {
        let mut sk = SkolemTable::default();
        let a1 = sk.apply(0, &[Const::Int(1)]);
        let a2 = sk.apply(0, &[Const::Int(1)]);
        let b = sk.apply(0, &[Const::Int(2)]);
        let c = sk.apply(1, &[Const::Int(1)]);
        assert_eq!(a1, a2, "determinism");
        assert_ne!(a1, b, "injectivity");
        assert_ne!(a1, c, "disjoint ranges");
        assert_eq!(sk.len(), 3);
    }

    #[test]
    fn relation_dedup_and_index() {
        let mut r = Relation::default();
        let t1: Tuple = vec![Const::Int(1), Const::Int(2)].into();
        let t2: Tuple = vec![Const::Int(1), Const::Int(3)].into();
        assert!(r.insert(t1.clone(), None).1);
        assert!(!r.insert(t1.clone(), None).1);
        assert!(r.insert(t2.clone(), None).1);
        assert_eq!(r.len(), 2);
        r.register_index(0b01);
        let rows = r.probe(0b01, &[Const::Int(1)]);
        assert_eq!(rows.len(), 2);
        // Index is maintained on subsequent inserts.
        let t3: Tuple = vec![Const::Int(1), Const::Int(4)].into();
        r.insert(t3, None);
        assert_eq!(r.probe(0b01, &[Const::Int(1)]).len(), 3);
        assert_eq!(r.probe(0b01, &[Const::Int(9)]).len(), 0);
    }

    #[test]
    fn database_fact_roundtrip() {
        let mut db = Database::new();
        db.fact("own").sym("a").sym("b").float(0.6).assert();
        assert!(!db.contains_str_fact("company", &["a"]));
        assert_eq!(db.fact_count("own"), 1);
        let rel = db.relation("own").unwrap();
        let row = rel.row(0);
        assert_eq!(db.display(row[0]), "a");
        assert_eq!(row[2].as_f64(), Some(0.6));
    }

    #[test]
    fn arity_is_enforced() {
        let mut db = Database::new();
        db.fact("p").int(1).assert();
        assert!(db.fact("p").int(1).int(2).try_assert().is_err());
    }

    #[test]
    fn assert_str_facts_and_contains() {
        let mut db = Database::new();
        db.assert_str_facts("edge", &[&["a", "b"], &["b", "c"]]);
        assert!(db.contains_str_fact("edge", &["a", "b"]));
        assert!(!db.contains_str_fact("edge", &["a", "c"]));
        assert!(!db.contains_str_fact("edge", &["a", "zzz"]));
        assert_eq!(db.total_facts(), 2);
    }

    #[test]
    fn dump_is_sorted_and_resolved() {
        let mut db = Database::new();
        db.assert_str_facts("e", &[&["b"], &["a"]]);
        assert_eq!(db.dump("e"), vec!["a".to_owned(), "b".to_owned()]);
        assert!(db.dump("missing").is_empty());
    }

    #[test]
    fn query_patterns() {
        let mut db = Database::new();
        db.fact("e").sym("a").sym("b").assert();
        db.fact("e").sym("a").sym("c").assert();
        db.fact("e").sym("b").sym("c").assert();
        let a = db.sym("a");
        let c = db.sym("c");
        assert_eq!(db.query("e", &[Some(a), None]).len(), 2);
        assert_eq!(db.query("e", &[None, Some(c)]).len(), 2);
        assert_eq!(db.query("e", &[Some(a), Some(c)]).len(), 1);
        assert_eq!(db.query("e", &[None, None]).len(), 3);
        assert!(db.query("e", &[None]).is_empty(), "arity mismatch");
        assert!(db.query("zzz", &[None]).is_empty());
    }

    #[test]
    fn remove_tuples_compacts_in_order() {
        let mut r = Relation::default();
        r.register_index(0b01);
        for i in 0..5 {
            r.insert(vec![Const::Int(i), Const::Int(i * 10)].into(), None);
        }
        let mut del = crate::fx::FxHashSet::default();
        del.insert(Tuple::from(&[Const::Int(1), Const::Int(10)][..]));
        del.insert(Tuple::from(&[Const::Int(3), Const::Int(30)][..]));
        del.insert(Tuple::from(&[Const::Int(9), Const::Int(90)][..])); // absent
        assert_eq!(r.remove_tuples(&del), 2);
        assert_eq!(r.len(), 3);
        // Survivors keep their relative order; row ids are dense again.
        let kept: Vec<i64> = r.rows().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(kept, vec![0, 2, 4]);
        assert_eq!(r.find(&[Const::Int(2), Const::Int(20)]), Some(1));
        assert_eq!(r.find(&[Const::Int(1), Const::Int(10)]), None);
        // Indexes were rebuilt over the compacted rows.
        assert_eq!(r.probe(0b01, &[Const::Int(4)]), &[2]);
        assert!(r.probe(0b01, &[Const::Int(3)]).is_empty());
        // Re-inserting a removed tuple appends at the end.
        let (row, fresh) = r.insert(vec![Const::Int(1), Const::Int(10)].into(), None);
        assert!(fresh);
        assert_eq!(row, 3);
    }

    #[test]
    fn retract_fact_roundtrip() {
        let mut db = Database::new();
        db.fact("own").sym("a").sym("b").float(0.6).assert();
        let row: Vec<Const> = db.query("own", &[None, None, None])[0].to_vec();
        assert!(db.retract_fact("own", &row));
        assert_eq!(db.fact_count("own"), 0);
        assert!(!db.retract_fact("own", &[Const::Int(1), Const::Int(2), Const::Int(3)]));
        assert!(!db.retract_fact("zzz", &[Const::Int(1)]));
    }

    #[test]
    fn canonical_rendering_resolves_nulls_structurally() {
        let mut db = Database::new();
        let a = db.sym("a");
        let f = db.symbols.intern("#mk");
        let id = db.skolems.apply(f, &[a]);
        let nested = db.skolems.apply(f, &[Const::Null(id)]);
        assert_eq!(db.canonical(Const::Null(id)), "#mk(a)");
        assert_eq!(db.canonical(Const::Null(nested)), "#mk(#mk(a))");
        assert_eq!(db.canonical(a), "a");
        // Unknown null ids fall back to the numeric rendering.
        assert_eq!(db.canonical(Const::Null(99)), "_:99");
    }

    #[test]
    fn csr_enumeration_matches_probe_enumeration() {
        // The byte-identity contract: for any key, the frozen CSR must
        // return exactly the rows the hash index would, in the same
        // (insertion) order — including duplicate-key and absent-key
        // shapes, and int/float keys that are Eq-equal via cmp.
        let mut r = Relation::default();
        r.register_index(0b01);
        let rows = [
            (3, 30),
            (1, 10),
            (3, 31),
            (2, 20),
            (1, 11),
            (3, 32),
            (2, 21),
        ];
        for (a, b) in rows {
            r.insert(vec![Const::Int(a), Const::Int(b)].into(), None);
        }
        r.freeze_columnar(&[0b01]);
        assert!(r.columnar().is_some());
        for key in [0, 1, 2, 3, 4] {
            let k = [Const::Int(key)];
            assert_eq!(
                r.lookup_rows(0b01, &k),
                r.probe(0b01, &k),
                "key {key}: CSR order diverged from hash-index order"
            );
        }
        // Column strips expose the stored values positionally.
        let col = r.columnar().unwrap().col(0);
        assert_eq!(col[0], Const::Int(3));
        assert_eq!(col[3], Const::Int(2));
    }

    #[test]
    fn multi_column_csr_matches_probe_enumeration() {
        // Two-column keys: the composite CSR must enumerate exactly what
        // the two-column hash index does, in insertion order, for every
        // present and absent key pair — including keys that share a first
        // column (the binary search compares full key slices).
        let mut r = Relation::default();
        r.register_index(0b011);
        r.register_index(0b101);
        let rows = [(3, 1, 9), (1, 2, 8), (3, 1, 7), (3, 2, 6), (1, 2, 5)];
        for (a, b, c) in rows {
            r.insert(
                vec![Const::Int(a), Const::Int(b), Const::Int(c)].into(),
                None,
            );
        }
        r.freeze_columnar(&[0b011, 0b101]);
        for a in 0..4 {
            for b in 0..10 {
                let k = [Const::Int(a), Const::Int(b)];
                assert_eq!(
                    r.lookup_rows(0b011, &k),
                    r.probe(0b011, &k),
                    "key ({a},{b}) cols 0,1"
                );
                assert_eq!(
                    r.lookup_rows(0b101, &k),
                    r.probe(0b101, &k),
                    "key ({a},{b}) cols 0,2"
                );
            }
        }
        assert_eq!(
            r.lookup_rows(0b011, &[Const::Int(3), Const::Int(1)]),
            &[0, 2]
        );
    }

    #[test]
    fn columnar_freeze_is_idempotent_and_extendable() {
        let mut r = Relation::default();
        r.register_index(0b01);
        r.register_index(0b10);
        r.insert(vec![Const::Int(1), Const::Int(2)].into(), None);
        r.freeze_columnar(&[0b01]);
        let first = r.columnar().unwrap() as *const Columnar;
        // Re-freezing with covered masks keeps the same frozen image.
        r.freeze_columnar(&[0b01]);
        assert_eq!(r.columnar().unwrap() as *const Columnar, first);
        // A new mask forces a rebuild that answers both.
        r.freeze_columnar(&[0b10]);
        assert_eq!(r.lookup_rows(0b01, &[Const::Int(1)]), &[0]);
        assert_eq!(r.lookup_rows(0b10, &[Const::Int(2)]), &[0]);
    }

    #[test]
    fn mutation_invalidates_columnar() {
        let mut r = Relation::default();
        r.register_index(0b01);
        r.insert(vec![Const::Int(1), Const::Int(2)].into(), None);
        r.freeze_columnar(&[0b01]);
        assert!(r.columnar().is_some());
        // Insert drops the frozen image; lookups fall back to the live
        // hash index and see the new row.
        r.insert(vec![Const::Int(1), Const::Int(3)].into(), None);
        assert!(r.columnar().is_none());
        assert_eq!(r.lookup_rows(0b01, &[Const::Int(1)]), &[0, 1]);
        // remove_tuples and replace_all invalidate too.
        r.freeze_columnar(&[0b01]);
        let mut del = crate::fx::FxHashSet::default();
        del.insert(Tuple::from(&[Const::Int(1), Const::Int(2)][..]));
        r.remove_tuples(&del);
        assert!(r.columnar().is_none());
        r.freeze_columnar(&[0b01]);
        r.replace_all(vec![vec![Const::Int(9), Const::Int(9)].into()]);
        assert!(r.columnar().is_none());
        assert_eq!(r.lookup_rows(0b01, &[Const::Int(9)]), &[0]);
    }

    #[test]
    fn empty_relation_freeze_answers_requested_masks() {
        // An empty relation has no arity yet; a requested CSR mask must
        // still be answered (empty) rather than panicking through to an
        // unregistered hash probe.
        let mut r = Relation::default();
        r.freeze_columnar(&[0b10]);
        assert!(r.lookup_rows(0b10, &[Const::Int(1)]).is_empty());
    }

    #[test]
    fn snapshots_share_predicate_name_allocations() {
        // The serve read path clones the database per epoch snapshot;
        // predicate names are Arc<str>, so the clone bumps refcounts
        // instead of copying strings.
        let mut db = Database::new();
        db.fact("own").sym("a").sym("b").float(0.5).assert();
        db.fact("company").sym("a").assert();
        let snap = db.clone();
        for p in 0..db.pred_count() as u32 {
            assert!(
                std::ptr::eq(db.pred_name(p), snap.pred_name(p)),
                "pred {p}: name was deep-copied"
            );
        }
        let mut keep = crate::fx::FxHashSet::default();
        keep.insert("own".to_owned());
        let scratch = db.scratch_for(&keep);
        for p in 0..db.pred_count() as u32 {
            assert!(std::ptr::eq(db.pred_name(p), scratch.pred_name(p)));
        }
    }

    #[test]
    fn replace_all_rebuilds_indexes() {
        let mut r = Relation::default();
        r.register_index(0b1);
        r.insert(vec![Const::Int(1)].into(), None);
        r.insert(vec![Const::Int(2)].into(), None);
        r.replace_all(vec![vec![Const::Int(2)].into()]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.probe(0b1, &[Const::Int(1)]).len(), 0);
        assert_eq!(r.probe(0b1, &[Const::Int(2)]).len(), 1);
    }
}
