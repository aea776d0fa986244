//! The seeded workload model: schemas, per-session request generators,
//! and the view images the load generator checks every reply against.
//!
//! Every session owns its own generator, seeded from the run seed and the
//! session index, and belongs to exactly one client connection, so its
//! request order is a pure function of the seed.  The generator tracks
//! the session's state as two bit masks (one per relation pool), which is
//! all the schema has: that is how the expected image of a `Read` is
//! known without asking the system.

use compview_core::SubschemaComponents;
use compview_logic::Schema;
use compview_relation::{rel, v, Instance, RelDecl, Signature, Tuple};
use compview_session::{SessionConfig, SessionRequest};
use std::collections::BTreeMap;

/// splitmix64: small, seedable, and good enough for traffic mixes.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `ppm` parts per million.
    pub fn ppm(&mut self, ppm: u32) -> bool {
        self.below(1_000_000) < u64::from(ppm)
    }
}

/// The tuple pool edits insert and remove; never part of any state the
/// generator asks for, so the remove that follows is always legal.
const EXTRA: &str = "x_extra";

/// A two-relation unary schema `R(A)/S(B)` with one pool per relation;
/// the state space is every pair of pool subsets.
pub struct Shape {
    pub sig: Signature,
    pub pools: BTreeMap<String, Vec<Tuple>>,
    /// Pool size per relation, in atom order (`R`, `S`).
    sizes: [u32; 2],
    /// Registered views: name and component mask (bit 0 = `R`).
    pub views: Vec<(String, u32)>,
    /// `images[view][key(masks)]`: the `Read` answer of each view in
    /// each state.
    images: Vec<Vec<Instance>>,
}

const RELS: [&str; 2] = ["R", "S"];

impl Shape {
    pub fn new(sizes: [u32; 2], views: &[(&str, u32)]) -> Shape {
        let sig = Signature::new([RelDecl::new("R", ["A"]), RelDecl::new("S", ["B"])]);
        let pools: BTreeMap<String, Vec<Tuple>> = RELS
            .iter()
            .zip(sizes)
            .map(|(r, n)| {
                let tuples = (0..n)
                    .map(|i| Tuple::new([v(&format!("{}{i}", r.to_lowercase()))]))
                    .collect();
                ((*r).to_owned(), tuples)
            })
            .collect();
        let mut shape = Shape {
            sig,
            pools,
            sizes,
            views: views.iter().map(|(n, m)| ((*n).to_owned(), *m)).collect(),
            images: Vec::new(),
        };
        let keys = 1usize << (sizes[0] + sizes[1]);
        shape.images = shape
            .views
            .iter()
            .map(|(_, mask)| {
                (0..keys)
                    .map(|k| shape.image(*mask, shape.unkey(k)))
                    .collect()
            })
            .collect();
        shape
    }

    pub fn family(&self) -> SubschemaComponents {
        SubschemaComponents::singletons(self.sig.clone())
    }

    pub fn schema(&self) -> Schema {
        Schema::unconstrained(self.sig.clone())
    }

    pub fn base(&self) -> Instance {
        Instance::null_model(&self.sig)
    }

    pub fn config(&self) -> SessionConfig {
        SessionConfig::default()
    }

    /// States in the enumerated space.
    pub fn states(&self) -> usize {
        1 << (self.sizes[0] + self.sizes[1])
    }

    fn key(&self, masks: [u32; 2]) -> usize {
        (masks[0] | masks[1] << self.sizes[0]) as usize
    }

    fn unkey(&self, key: usize) -> [u32; 2] {
        let k = key as u32;
        [k & ((1 << self.sizes[0]) - 1), k >> self.sizes[0]]
    }

    /// The state with relation `i` holding the pool tuples selected by
    /// `masks[i]`, restricted to the relations in the view `mask`.
    fn image(&self, mask: u32, masks: [u32; 2]) -> Instance {
        let mut inst = self.base();
        for (i, r) in RELS.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            let rows: Vec<Tuple> = self.pools[*r]
                .iter()
                .enumerate()
                .filter(|(j, _)| masks[i] & (1 << j) != 0)
                .map(|(_, t)| t.clone())
                .collect();
            inst.set(*r, rel(1, rows));
        }
        inst
    }

    /// What a `Read` of `view` answers in the state `masks`.
    pub fn expected(&self, view: u8, masks: [u32; 2]) -> &Instance {
        &self.images[usize::from(view)][self.key(masks)]
    }
}

/// One generated request, compact enough to log every one sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Read` of the view with this index.
    Read(u8),
    /// `Update` of a single-relation view (index = relation) to `mask`.
    Update {
        view: u8,
        mask: u16,
    },
    Undo,
    /// `InsertPoolTuple` of the extra tuple into `R`.
    Insert,
    /// `RemovePoolTuple` of the extra tuple from `R`.
    Remove,
}

/// What a reply kind is timed as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Update,
    Read,
    Pool,
}

impl Op {
    pub fn kind(self) -> Kind {
        match self {
            Op::Read(_) => Kind::Read,
            Op::Update { .. } | Op::Undo => Kind::Update,
            Op::Insert | Op::Remove => Kind::Pool,
        }
    }
}

/// The traffic mix of a workload's load connections.
pub struct Mix {
    /// Share of reads, parts per million.
    pub read_ppm: u32,
    /// One pool insert/remove pair every this many requests of a
    /// connection (0 = none): the insert goes to the session the request
    /// was for, the remove is that session's next request.  A fixed
    /// schedule, so every seed runs the same number of these costly
    /// edits.
    pub pool_every: u64,
    /// Views reads pick from (uniformly).
    pub read_views: &'static [u8],
    /// Single-relation views updates pick from (uniformly).
    pub update_views: &'static [u8],
    /// Undo history depth the generator never exceeds.
    pub max_depth: usize,
}

/// One session's generator and its model of the session state.
pub struct SessionModel {
    rng: Rng,
    masks: [u32; 2],
    history: Vec<[u32; 2]>,
    remove_next: bool,
}

impl SessionModel {
    pub fn new(seed: u64, session: usize) -> SessionModel {
        let mut rng = Rng::new(seed ^ (session as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        SessionModel {
            rng,
            masks: [0, 0],
            history: Vec::new(),
            remove_next: false,
        }
    }

    pub fn masks(&self) -> [u32; 2] {
        self.masks
    }

    /// The next request of this session; the model moves to the state
    /// the request leaves behind.  Every generated request is legal: an
    /// update always changes its view, an undo always has history, a
    /// remove always follows its insert.
    /// A pool insert (followed by its remove) as the next two requests,
    /// unless an insert is already waiting for its remove.
    pub fn edit_pool(&mut self, mix: &Mix, shape: &Shape) -> Op {
        if self.remove_next {
            return self.next(mix, shape);
        }
        self.remove_next = true;
        Op::Insert
    }

    pub fn next(&mut self, mix: &Mix, shape: &Shape) -> Op {
        if self.remove_next {
            // A removal drops the undo history (it may name states the
            // smaller space no longer has).
            self.remove_next = false;
            self.history.clear();
            return Op::Remove;
        }
        if self.rng.ppm(mix.read_ppm) {
            let view = mix.read_views[self.rng.below(mix.read_views.len() as u64) as usize];
            return Op::Read(view);
        }
        let depth = self.history.len();
        if depth > 0 && (depth >= mix.max_depth || self.rng.below(2) == 0) {
            self.masks = self.history.pop().expect("depth > 0");
            return Op::Undo;
        }
        let view = mix.update_views[self.rng.below(mix.update_views.len() as u64) as usize];
        let rel = usize::from(view);
        let states = 1u64 << shape.sizes[rel];
        let cur = u64::from(self.masks[rel]);
        let mut mask = self.rng.below(states - 1);
        if mask >= cur {
            mask += 1;
        }
        self.history.push(self.masks);
        self.masks[rel] = mask as u32;
        Op::Update {
            view,
            mask: mask as u16,
        }
    }
}

/// Every distinct request a workload sends, built once: the load
/// generator sends by reference, so no request is built on the hot path.
pub struct Requests {
    reads: Vec<SessionRequest>,
    /// `updates[view][mask]` (single-relation views only).
    updates: Vec<Vec<SessionRequest>>,
    undo: SessionRequest,
    insert: SessionRequest,
    remove: SessionRequest,
}

impl Requests {
    pub fn new(shape: &Shape) -> Requests {
        let reads = shape
            .views
            .iter()
            .map(|(name, _)| SessionRequest::Read { view: name.clone() })
            .collect();
        let updates = shape
            .views
            .iter()
            .enumerate()
            .map(|(i, (name, mask))| {
                if i >= 2 || *mask != 1 << i {
                    return Vec::new();
                }
                (0..1u32 << shape.sizes[i])
                    .map(|m| {
                        let mut masks = [0, 0];
                        masks[i] = m;
                        SessionRequest::Update {
                            view: name.clone(),
                            new_state: shape.image(*mask, masks),
                        }
                    })
                    .collect()
            })
            .collect();
        let extra = Tuple::new([v(EXTRA)]);
        Requests {
            reads,
            updates,
            undo: SessionRequest::Undo,
            insert: SessionRequest::InsertPoolTuple {
                relation: "R".into(),
                tuple: extra.clone(),
            },
            remove: SessionRequest::RemovePoolTuple {
                relation: "R".into(),
                tuple: extra,
            },
        }
    }

    pub fn get(&self, op: Op) -> &SessionRequest {
        match op {
            Op::Read(view) => &self.reads[usize::from(view)],
            Op::Update { view, mask } => &self.updates[usize::from(view)][usize::from(mask)],
            Op::Undo => &self.undo,
            Op::Insert => &self.insert,
            Op::Remove => &self.remove,
        }
    }
}

/// Session names sort in index order and parse back cheaply.
pub fn session_name(i: usize) -> String {
    format!("s{i:05}")
}

pub fn session_index(name: &str) -> Option<usize> {
    name.strip_prefix('s')?.parse().ok()
}
