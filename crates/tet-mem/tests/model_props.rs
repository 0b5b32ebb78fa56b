//! Model-based property tests: the set-associative cache and TLB are
//! checked against naive reference models over arbitrary operation
//! sequences, the paging radix tree against a flat map, and the
//! page-granular `PhysMem` accessors against a byte-at-a-time map.

use proptest::prelude::*;
use std::collections::HashMap;

use tet_mem::{AddressSpace, Cache, CacheConfig, PhysMem, Pte, Tlb, TlbConfig, PAGE_SIZE};

// ---------------------------------------------------------------------
// Cache vs a reference model (per-set LRU lists).
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CacheOp {
    Lookup(u64),
    Fill(u64),
    FlushLine(u64),
    FlushAll,
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    let addr = (0u64..64).prop_map(|l| l * 64 + (l % 7));
    prop_oneof![
        4 => addr.clone().prop_map(CacheOp::Lookup),
        4 => addr.clone().prop_map(CacheOp::Fill),
        1 => addr.prop_map(CacheOp::FlushLine),
        1 => Just(CacheOp::FlushAll),
    ]
}

/// Reference: same semantics, written as the obvious per-set LRU lists.
#[derive(Debug, Default)]
struct RefCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        RefCache {
            sets: vec![Vec::new(); sets],
            ways,
        }
    }
    fn idx(&self, addr: u64) -> usize {
        ((addr / 64) as usize) % self.sets.len()
    }
    fn lookup(&mut self, addr: u64) -> bool {
        let line = addr & !63;
        let i = self.idx(addr);
        if let Some(p) = self.sets[i].iter().position(|&l| l == line) {
            let l = self.sets[i].remove(p);
            self.sets[i].insert(0, l);
            true
        } else {
            false
        }
    }
    fn fill(&mut self, addr: u64) {
        let line = addr & !63;
        let i = self.idx(addr);
        if let Some(p) = self.sets[i].iter().position(|&l| l == line) {
            self.sets[i].remove(p);
        } else if self.sets[i].len() == self.ways {
            self.sets[i].pop();
        }
        self.sets[i].insert(0, line);
    }
}

proptest! {
    #[test]
    fn cache_matches_reference_model(ops in prop::collection::vec(cache_op(), 1..200)) {
        let cfg = CacheConfig::new(4, 2, 1);
        let mut dut = Cache::new(cfg);
        let mut reference = RefCache::new(4, 2);
        for op in &ops {
            match op {
                CacheOp::Lookup(a) => {
                    prop_assert_eq!(dut.lookup(*a), reference.lookup(*a), "lookup({:#x})", a);
                }
                CacheOp::Fill(a) => {
                    dut.fill(*a);
                    reference.fill(*a);
                }
                CacheOp::FlushLine(a) => {
                    dut.flush_line(*a);
                    let line = *a & !63;
                    let i = reference.idx(*a);
                    reference.sets[i].retain(|&l| l != line);
                }
                CacheOp::FlushAll => {
                    dut.flush_all();
                    for s in &mut reference.sets {
                        s.clear();
                    }
                }
            }
            // Invariants: capacity respected, fingerprint matches.
            prop_assert!(dut.resident_lines() <= 8);
            let mut expect: Vec<u64> = reference.sets.iter().flatten().copied().collect();
            expect.sort_unstable();
            prop_assert_eq!(dut.fingerprint(), expect);
        }
    }

    #[test]
    fn tlb_capacity_and_presence(pages in prop::collection::vec(0u64..32, 1..100)) {
        let mut tlb = Tlb::new(TlbConfig::new(2, 2));
        let mut last_fill: HashMap<u64, usize> = HashMap::new();
        for (i, p) in pages.iter().enumerate() {
            tlb.fill(p * 4096, Pte::user_data(*p));
            last_fill.insert(*p, i);
            prop_assert!(tlb.resident_entries() <= 4);
            // The just-filled page is always present (MRU).
            prop_assert!(tlb.probe(p * 4096));
        }
        // Every resident entry maps to the right frame.
        for p in 0..32u64 {
            if tlb.probe(p * 4096) {
                prop_assert_eq!(tlb.lookup(p * 4096).unwrap().pte.frame, p);
            }
        }
    }

    #[test]
    fn paging_matches_flat_map(
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..100)
    ) {
        // Random map/unmap of pages scattered across the radix levels.
        let mut aspace = AddressSpace::new();
        let mut flat: HashMap<u64, u64> = HashMap::new();
        for (i, (slot, map)) in ops.iter().enumerate() {
            // Spread slots across PML4/PDPT/PD/PT indices.
            let vaddr = (slot % 4) << 39 | (slot % 8) << 30 | (slot % 16) << 21 | slot << 12;
            if *map {
                aspace.map_page(vaddr, Pte::user_data(i as u64 + 1));
                flat.insert(vaddr >> 12, i as u64 + 1);
            } else {
                aspace.unmap_page(vaddr);
                flat.remove(&(vaddr >> 12));
            }
            prop_assert_eq!(aspace.mapped_pages(), flat.len());
        }
        for (vpn, frame) in &flat {
            prop_assert_eq!(aspace.translate(vpn << 12), Some(frame * 4096));
        }
    }

    #[test]
    fn walk_levels_bounded_and_consistent(slots in prop::collection::vec(0u64..64, 1..32)) {
        let mut aspace = AddressSpace::new();
        for s in &slots {
            aspace.map_page(0x4000_0000 + s * 4096, Pte::user_data(*s + 1));
        }
        for probe in 0..128u64 {
            let vaddr = 0x4000_0000 + probe * 4096;
            let (outcome, levels) = aspace.walk(vaddr);
            prop_assert!((1..=4).contains(&levels));
            prop_assert_eq!(outcome.is_mapped(), slots.contains(&probe));
            // A mapped walk always touches all four levels.
            if outcome.is_mapped() {
                prop_assert_eq!(levels, 4);
            }
        }
    }
}

// ---------------------------------------------------------------------
// PhysMem vs a byte-at-a-time reference.
// ---------------------------------------------------------------------

/// First byte of the window the memory ops land in.
const WIN_BASE: u64 = 0x7_0000;
/// Pages the ops can reach (ranges run up to one page past the last).
const WIN_PAGES: u64 = 6;

#[derive(Debug, Clone)]
enum MemOp {
    U8(u64, u8),
    U64(u64, u64),
    Bytes(u64, Vec<u8>),
    Read(u64, usize),
}

/// An address in the first four window pages; half of them sit within
/// eight bytes of a page end, so words and ranges straddle pages.
fn mem_addr() -> impl Strategy<Value = u64> {
    (0u64..4, 0u64..PAGE_SIZE, any::<bool>()).prop_map(|(page, off, edge)| {
        let off = if edge { PAGE_SIZE - 8 + off % 16 } else { off };
        WIN_BASE + page * PAGE_SIZE + off
    })
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        2 => (mem_addr(), any::<u8>()).prop_map(|(a, v)| MemOp::U8(a, v)),
        3 => (mem_addr(), any::<u64>()).prop_map(|(a, v)| MemOp::U64(a, v)),
        2 => (mem_addr(), prop::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(a, b)| MemOp::Bytes(a, b)),
        // Longer than a page: a middle chunk covers a whole page.
        1 => (mem_addr(), prop::collection::vec(any::<u8>(), 4100..4300))
            .prop_map(|(a, b)| MemOp::Bytes(a, b)),
        3 => (mem_addr(), 0usize..300).prop_map(|(a, n)| MemOp::Read(a, n)),
    ]
}

/// Reference: a flat byte array over the window; bytes outside it and
/// never-written bytes read zero.
#[derive(Debug, Clone)]
struct RefMem(Vec<u8>);

impl Default for RefMem {
    fn default() -> Self {
        RefMem(vec![0; (WIN_PAGES * PAGE_SIZE) as usize])
    }
}

impl RefMem {
    fn get(&self, pa: u64) -> u8 {
        pa.checked_sub(WIN_BASE)
            .and_then(|i| self.0.get(i as usize))
            .copied()
            .unwrap_or(0)
    }
    fn bytes(&self, pa: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| self.get(pa + i)).collect()
    }
    fn write(&mut self, pa: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.0[(pa - WIN_BASE) as usize + i] = *b;
        }
    }
}

/// Every accessor agrees with the reference around `pa..pa + len`.
fn check_range(mem: &PhysMem, model: &RefMem, pa: u64, len: usize) {
    let lo = pa.saturating_sub(8);
    let n = len + 16;
    assert_eq!(
        mem.read_bytes(lo, n),
        model.bytes(lo, n),
        "read_bytes({lo:#x}, {n})"
    );
    for at in [pa, pa + len as u64] {
        let word = u64::from_le_bytes(model.bytes(at, 8).try_into().unwrap());
        assert_eq!(mem.read_u64(at), word, "read_u64({at:#x})");
        assert_eq!(mem.read_u8(at), model.get(at), "read_u8({at:#x})");
        let line = at & !63;
        assert_eq!(
            mem.read_line(at).to_vec(),
            model.bytes(line, 64),
            "read_line({at:#x})"
        );
    }
}

/// The whole window agrees, read as one range and line by line.
fn check_window(mem: &PhysMem, model: &RefMem) {
    let len = (WIN_PAGES * PAGE_SIZE) as usize;
    assert_eq!(mem.read_bytes(WIN_BASE, len), model.bytes(WIN_BASE, len));
    for line in (WIN_BASE..WIN_BASE + WIN_PAGES * PAGE_SIZE).step_by(64) {
        assert_eq!(
            mem.read_line(line).to_vec(),
            model.bytes(line, 64),
            "line {line:#x}"
        );
    }
}

fn apply(mem: &mut PhysMem, model: &mut RefMem, ops: &[MemOp]) {
    for op in ops {
        let (pa, len) = match op {
            MemOp::U8(pa, v) => {
                mem.write_u8(*pa, *v);
                model.write(*pa, &[*v]);
                (*pa, 1)
            }
            MemOp::U64(pa, v) => {
                mem.write_u64(*pa, *v);
                model.write(*pa, &v.to_le_bytes());
                (*pa, 8)
            }
            MemOp::Bytes(pa, b) => {
                mem.write_bytes(*pa, b);
                model.write(*pa, b);
                (*pa, b.len())
            }
            MemOp::Read(pa, n) => (*pa, *n),
        };
        check_range(mem, model, pa, len);
    }
    check_window(mem, model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn phys_mem_matches_byte_reference(
        fresh in prop::collection::vec(mem_op(), 1..40),
        dirty in prop::collection::vec(mem_op(), 1..40),
        after in prop::collection::vec(mem_op(), 1..40),
    ) {
        // Fresh memory: pages allocate on first write.
        let mut mem = PhysMem::new();
        let mut model = RefMem::default();
        apply(&mut mem, &mut model, &fresh);

        // Sealed: every page is shared with the snapshot until a write
        // COW-forks it; the snapshot never sees those writes.
        mem.seal();
        let snap = mem.clone();
        let sealed_model = model.clone();
        apply(&mut mem, &mut model, &dirty);
        check_window(&snap, &sealed_model);

        // After a delta restore: back to the seal, then reused (the
        // recycled page boxes must not leak old bytes).
        prop_assert!(mem.restore_delta(&snap));
        model = sealed_model;
        check_window(&mem, &model);
        apply(&mut mem, &mut model, &after);
    }
}
