//! Model-based test of `ClusterMem` across several nodes: page tables with
//! cross-node frame mappings, the software TLB (the page numbers collide in
//! its slots), page runs and slices that cross page ends, dirty-word
//! tracking, and invalidation by `map_page`/`set_prot`/`unmap_page`/
//! `free_frame`, with every node's view checked after every step.

use std::collections::HashMap;

use cables_suite::memsim::{
    ClusterMem, DirtyBitmap, FaultKind, FrameId, GAddr, OsVmConfig, PageNum, Prot,
    DIRTY_BITMAP_WORDS, PAGE_SIZE,
};
use cables_suite::sim::NodeId;
use proptest::prelude::*;

const PAGE: usize = PAGE_SIZE as usize;

/// Twelve pages: `j`, `256 + j`, `512 + j` and `768 + j` share a slot of
/// the 256-entry TLB, and pages `j`, `j + 1` are adjacent so runs cross
/// page ends (runs off page 2 land on page 3, which is never mapped).
fn page_of(code: u8) -> u64 {
    (code % 4) as u64 * 256 + (code / 4 % 3) as u64
}

const PAGE_CODES: std::ops::Range<u8> = 0..12;

fn prot_of(code: u8) -> Prot {
    match code % 3 {
        0 => Prot::None,
        1 => Prot::Read,
        _ => Prot::ReadWrite,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Alloc {
        node: u8,
    },
    Free(u8),
    Map {
        node: u8,
        page: u8,
        frame: u8,
        prot: u8,
    },
    Unmap {
        node: u8,
        page: u8,
    },
    SetProt {
        node: u8,
        page: u8,
        prot: u8,
    },
    Track {
        node: u8,
        page: u8,
    },
    TakeDirty {
        node: u8,
        page: u8,
    },
    /// `how`: scalar, page run, slice, fill page run, fill.
    Write {
        node: u8,
        page: u8,
        off: u16,
        len: u16,
        how: u8,
        seed: u8,
    },
    /// `how`: scalar, page run, slice.
    Read {
        node: u8,
        page: u8,
        off: u16,
        len: u16,
        how: u8,
    },
    ToggleSlow,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(|node| Op::Alloc { node }),
        any::<u8>().prop_map(Op::Free),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(node, page, frame, prot)| Op::Map {
                node,
                page,
                frame,
                prot
            }
        ),
        (any::<u8>(), any::<u8>()).prop_map(|(node, page)| Op::Unmap { node, page }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(node, page, prot)| Op::SetProt {
            node,
            page,
            prot
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(node, page)| Op::Track { node, page }),
        (any::<u8>(), any::<u8>()).prop_map(|(node, page)| Op::TakeDirty { node, page }),
        (
            any::<u8>(),
            any::<u8>(),
            any::<u16>(),
            any::<u16>(),
            any::<u8>(),
            any::<u8>()
        )
            .prop_map(|(node, page, off, len, how, seed)| Op::Write {
                node,
                page,
                off,
                len,
                how,
                seed
            }),
        (
            any::<u8>(),
            any::<u8>(),
            any::<u16>(),
            any::<u16>(),
            any::<u8>()
        )
            .prop_map(|(node, page, off, len, how)| Op::Read {
                node,
                page,
                off,
                len,
                how
            }),
        Just(Op::ToggleSlow),
    ]
}

/// The reference: plain maps, no caching.
struct Model {
    nodes: u32,
    frames: Vec<FrameId>,
    freed: Vec<bool>,
    data: Vec<Vec<u8>>,
    /// `(node, page) -> (index into frames, prot)`.
    table: HashMap<(u32, u64), (usize, Prot)>,
    dirty: HashMap<(u32, u64), DirtyBitmap>,
    faults: Vec<u64>,
    slow: bool,
    /// Translations the TLB must have counted (all of them, outside
    /// slow mode).
    translations: u64,
}

impl Model {
    fn new(nodes: u32) -> Self {
        Model {
            nodes,
            frames: Vec::new(),
            freed: Vec::new(),
            data: Vec::new(),
            table: HashMap::new(),
            dirty: HashMap::new(),
            faults: vec![0; nodes as usize],
            slow: false,
            translations: 0,
        }
    }

    fn node(&self, code: u8) -> u32 {
        code as u32 % self.nodes
    }

    fn translate(&mut self, node: u32, page: u64) -> Option<(usize, Prot)> {
        if !self.slow {
            self.translations += 1;
        }
        self.table.get(&(node, page)).copied()
    }

    /// Applies `f` to each page run of `[addr, addr + len)` the way the
    /// memory layer does: one translation per run, stopping at the first
    /// run whose page forbids `kind`. Returns the faulting page, if any.
    fn runs(
        &mut self,
        node: u32,
        addr: u64,
        len: usize,
        kind: FaultKind,
        mut f: impl FnMut(&mut Self, usize, usize, usize, usize),
    ) -> Option<u64> {
        let mut done = 0;
        while done < len {
            let a = addr + done as u64;
            let (page, off) = (a / PAGE_SIZE, (a % PAGE_SIZE) as usize);
            let n = (len - done).min(PAGE - off);
            let allowed = match (self.translate(node, page), kind) {
                (Some((fi, p)), FaultKind::Read) if p != Prot::None => Some(fi),
                (Some((fi, Prot::ReadWrite)), FaultKind::Write) => Some(fi),
                _ => None,
            };
            let Some(fi) = allowed else {
                self.faults[node as usize] += 1;
                return Some(page);
            };
            f(self, fi, off, n, done);
            if kind == FaultKind::Write {
                if let Some(bm) = self.dirty.get_mut(&(node, page)) {
                    for w in off / 8..=(off + n - 1) / 8 {
                        bm[w / 64] |= 1 << (w % 64);
                    }
                }
            }
            done += n;
        }
        None
    }
}

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed) | 1)
        .collect()
}

/// Checks every node's view of every page, and the counters.
fn check_all(mem: &ClusterMem, m: &mut Model) {
    for n in 0..m.nodes {
        let node = NodeId(n);
        for code in PAGE_CODES {
            let page = page_of(code);
            let want = m.translate(n, page);
            let got = mem.translate(node, PageNum::new(page));
            assert_eq!(
                got,
                want.map(|(fi, p)| (m.frames[fi], p)),
                "translation of page {page} on node {n}"
            );
            // First word of the page: the frame's bytes, seen through
            // this node's mapping (cross-node mappings share them).
            let mut model_word = None;
            let fault = m.runs(
                n,
                page * PAGE_SIZE,
                8,
                FaultKind::Read,
                |m, fi, off, _, _| {
                    model_word = Some(u64::from_le_bytes(
                        m.data[fi][off..off + 8].try_into().unwrap(),
                    ));
                },
            );
            let got = mem.read_scalar::<u64>(node, GAddr::new(page * PAGE_SIZE));
            match fault {
                None => assert_eq!(got.ok(), model_word, "word 0 of page {page} on node {n}"),
                Some(_) => assert!(got.is_err(), "page {page} on node {n} must fault"),
            }
        }
        let st = mem.stats(node);
        let live = (0..m.frames.len())
            .filter(|&i| !m.freed[i] && m.frames[i].node == node)
            .count() as u64;
        assert_eq!(st.used_bytes, live * PAGE_SIZE);
        let mapped = m.table.keys().filter(|(k, _)| *k == n).count() as u64;
        assert_eq!(st.mapped_pages, mapped);
        assert_eq!(st.faults, m.faults[n as usize], "faults on node {n}");
    }
    let t = mem.tlb_stats();
    assert_eq!(
        t.hits + t.misses,
        m.translations,
        "every translation counted once"
    );
}

fn apply(mem: &ClusterMem, m: &mut Model, op: Op) {
    match op {
        Op::Alloc { node } => {
            let n = m.node(node);
            let f = mem.alloc_frame(NodeId(n)).unwrap();
            m.frames.push(f);
            m.freed.push(false);
            m.data.push(vec![0; PAGE]);
        }
        Op::Free(i) => {
            if m.frames.is_empty() {
                return;
            }
            let i = i as usize % m.frames.len();
            // Only unmapped frames are freed (the protocol's contract).
            if m.freed[i] || m.table.values().any(|(fi, _)| *fi == i) {
                return;
            }
            mem.free_frame(m.frames[i]);
            m.freed[i] = true;
        }
        Op::Map {
            node,
            page,
            frame,
            prot,
        } => {
            if m.frames.is_empty() {
                return;
            }
            let fi = frame as usize % m.frames.len();
            if m.freed[fi] {
                return;
            }
            let (n, p, pr) = (m.node(node), page_of(page), prot_of(prot));
            mem.map_page(NodeId(n), PageNum::new(p), m.frames[fi], pr);
            m.table.insert((n, p), (fi, pr));
        }
        Op::Unmap { node, page } => {
            let (n, p) = (m.node(node), page_of(page));
            mem.unmap_page(NodeId(n), PageNum::new(p));
            m.table.remove(&(n, p));
        }
        Op::SetProt { node, page, prot } => {
            let (n, p, pr) = (m.node(node), page_of(page), prot_of(prot));
            let res = mem.set_prot(NodeId(n), PageNum::new(p), pr);
            match m.table.get_mut(&(n, p)) {
                Some(e) => {
                    assert!(res.is_ok());
                    e.1 = pr;
                }
                None => assert!(res.is_err()),
            }
        }
        Op::Track { node, page } => {
            let (n, p) = (m.node(node), page_of(page));
            mem.track_writes(NodeId(n), PageNum::new(p));
            m.dirty.insert((n, p), [0; DIRTY_BITMAP_WORDS]);
        }
        Op::TakeDirty { node, page } => {
            let (n, p) = (m.node(node), page_of(page));
            assert_eq!(
                mem.take_dirty(NodeId(n), PageNum::new(p)),
                m.dirty.remove(&(n, p)),
                "dirty words of page {p} on node {n}"
            );
        }
        Op::Write {
            node,
            page,
            off,
            len,
            how,
            seed,
        } => {
            let (n, node) = (m.node(node), NodeId(m.node(node)));
            let base = page_of(page) * PAGE_SIZE;
            let off = off as u64 % PAGE_SIZE;
            // Up to a page and a half: slices cross one page end.
            let len = 1 + len as usize % (PAGE + PAGE / 2);
            let bytes = pattern(seed, len);
            let write = |m: &mut Model, fi: usize, o: usize, k: usize, done: usize| {
                m.data[fi][o..o + k].copy_from_slice(&bytes[done..done + k]);
            };
            let fill = |m: &mut Model, fi: usize, o: usize, k: usize, _: usize| {
                m.data[fi][o..o + k].fill(seed);
            };
            match how % 5 {
                0 => {
                    let addr = base + (off & !7).min(PAGE_SIZE - 8);
                    let v_bytes: [u8; 8] = pattern(seed, 8).try_into().unwrap();
                    let v = u64::from_le_bytes(v_bytes);
                    let fault = m.runs(n, addr, 8, FaultKind::Write, |m, fi, o, k, _| {
                        m.data[fi][o..o + k].copy_from_slice(&v_bytes);
                    });
                    assert_eq!(
                        mem.write_scalar(node, GAddr::new(addr), v).is_err(),
                        fault.is_some()
                    );
                }
                1 => {
                    let clamped = len.min(PAGE - off as usize);
                    let fault = m.runs(n, base + off, clamped, FaultKind::Write, write);
                    let got = mem.write_page_run(node, GAddr::new(base + off), &bytes);
                    assert_eq!(got.ok(), fault.is_none().then_some(clamped));
                }
                2 => {
                    let fault = m.runs(n, base + off, len, FaultKind::Write, write);
                    let got = mem.write_slice(node, GAddr::new(base + off), &bytes);
                    assert_eq!(got.err().map(|f| f.page.index()), fault);
                }
                3 => {
                    let clamped = len.min(PAGE - off as usize);
                    let fault = m.runs(n, base + off, clamped, FaultKind::Write, fill);
                    let got = mem.fill_page_run(node, GAddr::new(base + off), seed, len);
                    assert_eq!(got.ok(), fault.is_none().then_some(clamped));
                }
                _ => {
                    let fault = m.runs(n, base + off, len, FaultKind::Write, fill);
                    let got = mem.fill(node, GAddr::new(base + off), seed, len as u64);
                    assert_eq!(got.err().map(|f| f.page.index()), fault);
                }
            }
        }
        Op::Read {
            node,
            page,
            off,
            len,
            how,
        } => {
            let (n, node) = (m.node(node), NodeId(m.node(node)));
            let base = page_of(page) * PAGE_SIZE;
            let off = off as u64 % PAGE_SIZE;
            let len = 1 + len as usize % (PAGE + PAGE / 2);
            let mut want = vec![0u8; len];
            let mut got = vec![0u8; len];
            let read = |m: &mut Model, fi: usize, o: usize, k: usize, done: usize| {
                want[done..done + k].copy_from_slice(&m.data[fi][o..o + k]);
            };
            match how % 3 {
                0 => {
                    let addr = base + (off & !3).min(PAGE_SIZE - 4);
                    let fault = m.runs(n, addr, 4, FaultKind::Read, read);
                    let res = mem.read_scalar::<u32>(node, GAddr::new(addr));
                    assert_eq!(
                        res.ok(),
                        fault
                            .is_none()
                            .then(|| u32::from_le_bytes(want[..4].try_into().unwrap()))
                    );
                }
                1 => {
                    let clamped = len.min(PAGE - off as usize);
                    let fault = m.runs(n, base + off, clamped, FaultKind::Read, read);
                    let res = mem.read_page_run(node, GAddr::new(base + off), &mut got);
                    assert_eq!(res.ok(), fault.is_none().then_some(clamped));
                    assert_eq!(got, want);
                }
                _ => {
                    let fault = m.runs(n, base + off, len, FaultKind::Read, read);
                    let res = mem.read_slice(node, GAddr::new(base + off), &mut got);
                    assert_eq!(res.err().map(|f| f.page.index()), fault);
                    // Bytes before a fault were copied; the rest untouched.
                    assert_eq!(got, want);
                }
            }
        }
        Op::ToggleSlow => {
            m.slow = !m.slow;
            mem.set_slow_mode(m.slow);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cluster_mem_matches_reference_model(
        nodes in 2u32..4,
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let mem = ClusterMem::new(OsVmConfig::windows_nt());
        mem.ensure_node(NodeId(nodes - 1));
        let mut m = Model::new(nodes);
        for op in ops {
            apply(&mem, &mut m, op);
            check_all(&mem, &mut m);
        }
    }
}

/// Freeing a frame must clear the TLB entries that cache it on every
/// node: once the id is re-allocated, the mappings that still name it
/// reach the new, zeroed frame rather than the cached old one.
#[test]
fn free_frame_invalidates_every_node() {
    let mem = ClusterMem::new(OsVmConfig::windows_nt());
    mem.ensure_node(NodeId(2));
    let f = mem.alloc_frame(NodeId(0)).unwrap();
    let page = PageNum::new(300);
    for n in 0..3 {
        mem.map_page(NodeId(n), page, f, Prot::ReadWrite);
    }
    mem.write_scalar(NodeId(1), page.base(), 7u64).unwrap();
    for n in 0..3 {
        assert_eq!(mem.read_scalar::<u64>(NodeId(n), page.base()).unwrap(), 7);
    }
    mem.free_frame(f);
    let g = mem.alloc_frame(NodeId(0)).unwrap();
    assert_eq!(g, f, "the freed slot is reused");
    for n in 0..3 {
        assert_eq!(mem.read_scalar::<u64>(NodeId(n), page.base()).unwrap(), 0);
    }
}
