//! The B-tree VMA table — the Jord_BT ablation (§5, Figure 13).
//!
//! Jord can also keep VMAs in a B-tree (as Midgard-style designs do) instead
//! of the plain list. We implement a real B+ tree keyed by VMA base address:
//! leaves hold (base → VTE) bindings, internal nodes hold separators, and
//! every node the walk touches is reported as a [`TableAccess::NodeRead`] /
//! [`TableAccess::NodeWrite`] so the hardware model charges the traversal.
//! VTEs themselves live in a side arena with stable addresses (so VLB/VTD
//! tags survive rebalancing); splits, borrows, and merges touch extra nodes,
//! which is precisely the "+167 % VMA management time, 20 ns VLB miss
//! penalty" effect of Figure 13.
//!
//! Nodes hold up to 6 keys (~2 cache blocks with pointers), mirroring a
//! cache-line-conscious hardware walker.

use jord_hw::types::{PdId, Perm, Va, VteAddr};

use crate::codec::VaCodec;
use crate::size_class::SizeClass;
use crate::table::{GrantIndex, TableAccess, VmaRecord, VmaTable};
use crate::vte::{Vte, VteAttr};

/// Maximum keys per node.
const MAX_KEYS: usize = 6;
/// Minimum keys per non-root node.
const MIN_KEYS: usize = MAX_KEYS / 2;
/// Modelled bytes per B-tree node (2 cache blocks).
pub const NODE_BYTES: u64 = 128;

#[derive(Debug, Clone)]
struct Node {
    leaf: bool,
    /// Leaf: entry keys. Internal: separators (`len == children.len() - 1`).
    keys: Vec<u64>,
    /// Leaf only: arena slots, parallel to `keys`.
    vals: Vec<u32>,
    /// Internal only: child node ids.
    children: Vec<u32>,
}

impl Node {
    fn new_leaf() -> Node {
        Node {
            leaf: true,
            keys: Vec::with_capacity(MAX_KEYS + 1),
            vals: Vec::with_capacity(MAX_KEYS + 1),
            children: Vec::new(),
        }
    }

    fn new_internal() -> Node {
        Node {
            leaf: false,
            keys: Vec::with_capacity(MAX_KEYS + 1),
            vals: Vec::new(),
            children: Vec::with_capacity(MAX_KEYS + 2),
        }
    }
}

/// The B+ tree VMA table.
#[derive(Debug)]
pub struct BTreeTable {
    codec: VaCodec,
    node_base: u64,
    arena_base: u64,
    nodes: Vec<Node>,
    free_nodes: Vec<u32>,
    arena: Vec<Option<Vte>>,
    free_arena: Vec<u32>,
    /// Arena slot by (class, index) so the (sc, index)-keyed trait methods
    /// can find their VTE without a tree walk being *hidden* — mutation
    /// paths still walk the tree explicitly to charge realistic traffic.
    /// Ordered, so `live_slots` enumerates class-then-index without a sort.
    slot_of_vma: std::collections::BTreeMap<(u8, u32), u32>,
    root: u32,
    live: usize,
    grants: GrantIndex,
}

impl BTreeTable {
    /// Creates an empty table; `node_base`/`arena_base` are the memory
    /// regions the index nodes and VTE arena are charged at.
    pub fn new(codec: VaCodec, node_base: u64, arena_base: u64) -> Self {
        BTreeTable {
            codec,
            node_base,
            arena_base,
            nodes: vec![Node::new_leaf()],
            free_nodes: Vec::new(),
            arena: Vec::new(),
            free_arena: Vec::new(),
            slot_of_vma: std::collections::BTreeMap::new(),
            root: 0,
            live: 0,
            grants: GrantIndex::default(),
        }
    }

    /// The codec used for (class, index) → base translation.
    pub fn codec(&self) -> &VaCodec {
        &self.codec
    }

    fn node_addr(&self, id: u32) -> u64 {
        self.node_base + id as u64 * NODE_BYTES
    }

    fn arena_addr(&self, slot: u32) -> VteAddr {
        VteAddr(self.arena_base + slot as u64 * 64)
    }

    fn alloc_node(&mut self, node: Node) -> u32 {
        if let Some(id) = self.free_nodes.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn alloc_arena(&mut self, vte: Vte) -> u32 {
        if let Some(slot) = self.free_arena.pop() {
            self.arena[slot as usize] = Some(vte);
            slot
        } else {
            self.arena.push(Some(vte));
            (self.arena.len() - 1) as u32
        }
    }

    /// Walks to the leaf containing the greatest key ≤ `key`, charging
    /// NodeReads. Returns the leaf node id.
    fn descend(&self, key: u64, acc: &mut Vec<TableAccess>) -> u32 {
        let mut id = self.root;
        loop {
            acc.push(TableAccess::NodeRead(self.node_addr(id)));
            let node = &self.nodes[id as usize];
            if node.leaf {
                return id;
            }
            let child = node.keys.partition_point(|&k| key >= k);
            id = node.children[child];
        }
    }

    /// Finds the arena slot of the VMA whose range covers `va`.
    fn find_covering(&self, va: Va, acc: &mut Vec<TableAccess>) -> Option<u32> {
        let leaf_id = self.descend(va, acc);
        let leaf = &self.nodes[leaf_id as usize];
        // Greatest key ≤ va within this leaf.
        let pos = leaf.keys.partition_point(|&k| k <= va);
        if pos == 0 {
            return None;
        }
        Some(leaf.vals[pos - 1])
    }

    /// Recursive insert; returns `Some((separator, new_right))` on split.
    fn insert_rec(
        &mut self,
        id: u32,
        key: u64,
        val: u32,
        acc: &mut Vec<TableAccess>,
    ) -> Option<(u64, u32)> {
        acc.push(TableAccess::NodeRead(self.node_addr(id)));
        if self.nodes[id as usize].leaf {
            let node = &mut self.nodes[id as usize];
            let pos = node.keys.partition_point(|&k| k < key);
            debug_assert!(node.keys.get(pos) != Some(&key), "duplicate base");
            node.keys.insert(pos, key);
            node.vals.insert(pos, val);
            acc.push(TableAccess::NodeWrite(self.node_addr(id)));
            if self.nodes[id as usize].keys.len() <= MAX_KEYS {
                return None;
            }
            // Split the leaf.
            let mid = self.nodes[id as usize].keys.len() / 2;
            let mut right = Node::new_leaf();
            right.keys = self.nodes[id as usize].keys.split_off(mid);
            right.vals = self.nodes[id as usize].vals.split_off(mid);
            let sep = right.keys[0];
            let right_id = self.alloc_node(right);
            acc.push(TableAccess::NodeWrite(self.node_addr(id)));
            acc.push(TableAccess::NodeWrite(self.node_addr(right_id)));
            Some((sep, right_id))
        } else {
            let child_pos = self.nodes[id as usize].keys.partition_point(|&k| key >= k);
            let child_id = self.nodes[id as usize].children[child_pos];
            let split = self.insert_rec(child_id, key, val, acc)?;
            let (sep, right_id) = split;
            let addr = self.node_addr(id);
            let node = &mut self.nodes[id as usize];
            node.keys.insert(child_pos, sep);
            node.children.insert(child_pos + 1, right_id);
            acc.push(TableAccess::NodeWrite(addr));
            if node.keys.len() <= MAX_KEYS {
                return None;
            }
            // Split the internal node: middle separator moves up.
            let mid = self.nodes[id as usize].keys.len() / 2;
            let up = self.nodes[id as usize].keys[mid];
            let mut right = Node::new_internal();
            right.keys = self.nodes[id as usize].keys.split_off(mid + 1);
            self.nodes[id as usize].keys.pop();
            right.children = self.nodes[id as usize].children.split_off(mid + 1);
            let right_id = self.alloc_node(right);
            acc.push(TableAccess::NodeWrite(self.node_addr(id)));
            acc.push(TableAccess::NodeWrite(self.node_addr(right_id)));
            Some((up, right_id))
        }
    }

    fn insert_key(&mut self, key: u64, val: u32, acc: &mut Vec<TableAccess>) {
        if let Some((sep, right)) = self.insert_rec(self.root, key, val, acc) {
            let mut new_root = Node::new_internal();
            new_root.keys.push(sep);
            new_root.children.push(self.root);
            new_root.children.push(right);
            self.root = self.alloc_node(new_root);
            acc.push(TableAccess::NodeWrite(self.node_addr(self.root)));
        }
    }

    /// Recursive delete; returns `true` if `id` underflowed.
    fn delete_rec(&mut self, id: u32, key: u64, acc: &mut Vec<TableAccess>) -> bool {
        acc.push(TableAccess::NodeRead(self.node_addr(id)));
        if self.nodes[id as usize].leaf {
            let node = &mut self.nodes[id as usize];
            if let Ok(pos) = node.keys.binary_search(&key) {
                node.keys.remove(pos);
                node.vals.remove(pos);
                acc.push(TableAccess::NodeWrite(self.node_addr(id)));
            }
            self.nodes[id as usize].keys.len() < MIN_KEYS
        } else {
            let child_pos = self.nodes[id as usize].keys.partition_point(|&k| key >= k);
            let child_id = self.nodes[id as usize].children[child_pos];
            if self.delete_rec(child_id, key, acc) {
                self.fix_underflow(id, child_pos, acc);
            }
            let node = &self.nodes[id as usize];
            node.children.len() < MIN_KEYS + 1
        }
    }

    /// Rebalances child `child_pos` of internal node `id` after underflow:
    /// borrow from a sibling if possible, otherwise merge.
    fn fix_underflow(&mut self, id: u32, child_pos: usize, acc: &mut Vec<TableAccess>) {
        let child_id = self.nodes[id as usize].children[child_pos];

        // Try borrowing from the left sibling.
        if child_pos > 0 {
            let left_id = self.nodes[id as usize].children[child_pos - 1];
            acc.push(TableAccess::NodeRead(self.node_addr(left_id)));
            if self.nodes[left_id as usize].keys.len() > MIN_KEYS {
                self.borrow_from_left(id, child_pos, left_id, child_id, acc);
                return;
            }
        }
        // Try borrowing from the right sibling.
        if child_pos + 1 < self.nodes[id as usize].children.len() {
            let right_id = self.nodes[id as usize].children[child_pos + 1];
            acc.push(TableAccess::NodeRead(self.node_addr(right_id)));
            if self.nodes[right_id as usize].keys.len() > MIN_KEYS {
                self.borrow_from_right(id, child_pos, child_id, right_id, acc);
                return;
            }
        }
        // Merge with a sibling.
        if child_pos > 0 {
            let left_id = self.nodes[id as usize].children[child_pos - 1];
            self.merge_children(id, child_pos - 1, left_id, child_id, acc);
        } else {
            let right_id = self.nodes[id as usize].children[child_pos + 1];
            self.merge_children(id, child_pos, child_id, right_id, acc);
        }
    }

    fn borrow_from_left(
        &mut self,
        parent: u32,
        child_pos: usize,
        left: u32,
        child: u32,
        acc: &mut Vec<TableAccess>,
    ) {
        if self.nodes[child as usize].leaf {
            let k = self.nodes[left as usize].keys.pop().expect("donor key");
            let v = self.nodes[left as usize].vals.pop().expect("donor val");
            self.nodes[child as usize].keys.insert(0, k);
            self.nodes[child as usize].vals.insert(0, v);
            self.nodes[parent as usize].keys[child_pos - 1] = k;
        } else {
            let k = self.nodes[left as usize].keys.pop().expect("donor key");
            let c = self.nodes[left as usize]
                .children
                .pop()
                .expect("donor child");
            let sep = std::mem::replace(&mut self.nodes[parent as usize].keys[child_pos - 1], k);
            self.nodes[child as usize].keys.insert(0, sep);
            self.nodes[child as usize].children.insert(0, c);
        }
        acc.push(TableAccess::NodeWrite(self.node_addr(left)));
        acc.push(TableAccess::NodeWrite(self.node_addr(child)));
        acc.push(TableAccess::NodeWrite(self.node_addr(parent)));
    }

    fn borrow_from_right(
        &mut self,
        parent: u32,
        child_pos: usize,
        child: u32,
        right: u32,
        acc: &mut Vec<TableAccess>,
    ) {
        if self.nodes[child as usize].leaf {
            let k = self.nodes[right as usize].keys.remove(0);
            let v = self.nodes[right as usize].vals.remove(0);
            self.nodes[child as usize].keys.push(k);
            self.nodes[child as usize].vals.push(v);
            self.nodes[parent as usize].keys[child_pos] = self.nodes[right as usize].keys[0];
        } else {
            let k = self.nodes[right as usize].keys.remove(0);
            let c = self.nodes[right as usize].children.remove(0);
            let sep = std::mem::replace(&mut self.nodes[parent as usize].keys[child_pos], k);
            self.nodes[child as usize].keys.push(sep);
            self.nodes[child as usize].children.push(c);
        }
        acc.push(TableAccess::NodeWrite(self.node_addr(right)));
        acc.push(TableAccess::NodeWrite(self.node_addr(child)));
        acc.push(TableAccess::NodeWrite(self.node_addr(parent)));
    }

    /// Merges `right` into `left` (children `left_pos` and `left_pos + 1`
    /// of `parent`) and drops the separator.
    fn merge_children(
        &mut self,
        parent: u32,
        left_pos: usize,
        left: u32,
        right: u32,
        acc: &mut Vec<TableAccess>,
    ) {
        let right_node = std::mem::replace(&mut self.nodes[right as usize], Node::new_leaf());
        let sep = self.nodes[parent as usize].keys.remove(left_pos);
        self.nodes[parent as usize].children.remove(left_pos + 1);
        let left_node = &mut self.nodes[left as usize];
        if left_node.leaf {
            left_node.keys.extend(right_node.keys);
            left_node.vals.extend(right_node.vals);
        } else {
            left_node.keys.push(sep);
            left_node.keys.extend(right_node.keys);
            left_node.children.extend(right_node.children);
        }
        self.free_nodes.push(right);
        acc.push(TableAccess::NodeWrite(self.node_addr(left)));
        acc.push(TableAccess::NodeWrite(self.node_addr(parent)));
    }

    fn delete_key(&mut self, key: u64, acc: &mut Vec<TableAccess>) {
        self.delete_rec(self.root, key, acc);
        // Shrink the root if it became a single-child internal node.
        let root = &self.nodes[self.root as usize];
        if !root.leaf && root.children.len() == 1 {
            let old = self.root;
            self.root = root.children[0];
            self.free_nodes.push(old);
        }
    }

    /// Validates B+ tree structural invariants (tests / debug builds).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        fn walk(
            t: &BTreeTable,
            id: u32,
            depth: usize,
            leaf_depth: &mut Option<usize>,
            is_root: bool,
        ) {
            let n = &t.nodes[id as usize];
            assert!(n.keys.windows(2).all(|w| w[0] < w[1]), "keys sorted");
            if n.leaf {
                assert_eq!(n.keys.len(), n.vals.len());
                if !is_root {
                    assert!(n.keys.len() >= MIN_KEYS, "leaf underflow");
                }
                match leaf_depth {
                    None => *leaf_depth = Some(depth),
                    Some(d) => assert_eq!(*d, depth, "leaves at equal depth"),
                }
            } else {
                assert_eq!(n.children.len(), n.keys.len() + 1);
                if !is_root {
                    assert!(n.children.len() > MIN_KEYS, "internal underflow");
                } else {
                    assert!(n.children.len() >= 2, "root internal has ≥2 children");
                }
                assert!(n.keys.len() <= MAX_KEYS);
                for &c in &n.children {
                    walk(t, c, depth + 1, leaf_depth, false);
                }
            }
        }
        let mut leaf_depth = None;
        walk(self, self.root, 0, &mut leaf_depth, true);
    }

    fn vma_key(&self, sc: SizeClass, index: u32) -> u64 {
        self.codec
            .base_of(sc, index)
            .expect("index within codec capacity")
    }
}

impl VmaTable for BTreeTable {
    fn lookup(&mut self, va: Va, pd: PdId, acc: &mut Vec<TableAccess>) -> Option<VmaRecord> {
        if !self.codec.matches(va) {
            return None;
        }
        let slot = self.find_covering(va, acc)?;
        let vte_addr = self.arena_addr(slot);
        acc.push(TableAccess::VteRead(vte_addr));
        let vte = self.arena[slot as usize].as_ref()?;
        if !vte.attr.valid || va < vte.base || va - vte.base >= vte.len {
            return None;
        }
        Some(VmaRecord {
            vte: vte_addr,
            base: vte.base,
            len: vte.len,
            global: vte.attr.global,
            privileged: vte.attr.privileged,
            perm: vte.perm_for(pd),
        })
    }

    fn insert(
        &mut self,
        sc: SizeClass,
        index: u32,
        len: u64,
        phys: u64,
        acc: &mut Vec<TableAccess>,
    ) -> VteAddr {
        assert!(len <= sc.bytes(), "len exceeds size-class chunk");
        let base = self.vma_key(sc, index);
        assert!(
            !self.slot_of_vma.contains_key(&(sc.index(), index)),
            "double insert at {sc} index {index}"
        );
        let slot = self.alloc_arena(Vte::new(base, len, phys));
        self.slot_of_vma.insert((sc.index(), index), slot);
        self.insert_key(base, slot, acc);
        let vte_addr = self.arena_addr(slot);
        acc.push(TableAccess::VteWrite(vte_addr));
        self.live += 1;
        vte_addr
    }

    fn remove(&mut self, sc: SizeClass, index: u32, acc: &mut Vec<TableAccess>) -> bool {
        let Some(slot) = self.slot_of_vma.remove(&(sc.index(), index)) else {
            return false;
        };
        let base = self.vma_key(sc, index);
        self.delete_key(base, acc);
        let vte_addr = self.arena_addr(slot);
        acc.push(TableAccess::VteWrite(vte_addr));
        if let Some(mut vte) = self.arena[slot as usize].take() {
            self.grants.clear(&mut vte, sc, index);
        }
        self.free_arena.push(slot);
        self.live -= 1;
        true
    }

    fn set_perm(
        &mut self,
        sc: SizeClass,
        index: u32,
        pd: PdId,
        perm: Perm,
        acc: &mut Vec<TableAccess>,
    ) -> bool {
        let base = self.vma_key(sc, index);
        let Some(slot) = self.find_covering(base, acc) else {
            return false;
        };
        let Some(vte) = self.arena[slot as usize].as_mut() else {
            return false;
        };
        if vte.base != base || !vte.attr.valid {
            return false;
        }
        self.grants.set_perm(vte, sc, index, pd, perm);
        acc.push(TableAccess::VteWrite(self.arena_addr(slot)));
        true
    }

    fn transfer_perm(
        &mut self,
        sc: SizeClass,
        index: u32,
        from: PdId,
        to: PdId,
        mask: Perm,
        mv: bool,
        acc: &mut Vec<TableAccess>,
    ) -> Option<Perm> {
        let base = self.vma_key(sc, index);
        let slot = self.find_covering(base, acc)?;
        let vte = self.arena[slot as usize].as_mut()?;
        if vte.base != base || !vte.attr.valid {
            return None;
        }
        let perm = self.grants.transfer(vte, sc, index, from, to, mask, mv)?;
        acc.push(TableAccess::VteWrite(self.arena_addr(slot)));
        Some(perm)
    }

    fn set_len(&mut self, sc: SizeClass, index: u32, len: u64, acc: &mut Vec<TableAccess>) -> bool {
        if len == 0 || len > sc.bytes() {
            return false;
        }
        let base = self.vma_key(sc, index);
        let Some(slot) = self.find_covering(base, acc) else {
            return false;
        };
        let Some(vte) = self.arena[slot as usize].as_mut() else {
            return false;
        };
        if vte.base != base {
            return false;
        }
        vte.len = len;
        acc.push(TableAccess::VteWrite(self.arena_addr(slot)));
        true
    }

    fn set_attr(
        &mut self,
        sc: SizeClass,
        index: u32,
        attr: VteAttr,
        acc: &mut Vec<TableAccess>,
    ) -> bool {
        let base = self.vma_key(sc, index);
        let Some(slot) = self.find_covering(base, acc) else {
            return false;
        };
        let Some(vte) = self.arena[slot as usize].as_mut() else {
            return false;
        };
        if vte.base != base {
            return false;
        }
        vte.attr = VteAttr {
            valid: true,
            ..attr
        };
        acc.push(TableAccess::VteWrite(self.arena_addr(slot)));
        true
    }

    fn peek(&self, sc: SizeClass, index: u32) -> Option<&Vte> {
        let slot = self.slot_of_vma.get(&(sc.index(), index))?;
        self.arena[*slot as usize].as_ref().filter(|v| v.attr.valid)
    }

    fn vte_addr(&self, sc: SizeClass, index: u32) -> VteAddr {
        match self.slot_of_vma.get(&(sc.index(), index)) {
            Some(&slot) => self.arena_addr(slot),
            None => VteAddr(0),
        }
    }

    fn live_mappings(&self) -> usize {
        self.live
    }

    fn live_slots(&self) -> Vec<(SizeClass, u32)> {
        self.slot_of_vma
            .keys()
            .map(|&(sc, index)| {
                (
                    SizeClass::from_index(sc).expect("stored class valid"),
                    index,
                )
            })
            .collect()
    }

    fn pd_slots(&self, pd: PdId) -> Vec<(SizeClass, u32)> {
        self.grants.slots(pd)
    }

    fn dead_slots(&self) -> usize {
        self.free_nodes.len() + self.free_arena.len()
    }

    fn compact(&mut self, acc: &mut Vec<TableAccess>) -> usize {
        let mut reclaimed = 0;
        // Only trailing freed entries can be released: interior node ids
        // are referenced by parents and interior arena slots must keep
        // their addresses (VLB/VTD tags survive rebalancing). Interior
        // holes stay on the free lists for reuse by the next insert.
        self.free_nodes.sort_unstable();
        while self
            .free_nodes
            .last()
            .is_some_and(|&id| id as usize == self.nodes.len() - 1)
        {
            let id = self.free_nodes.pop().expect("checked non-empty");
            acc.push(TableAccess::NodeWrite(self.node_addr(id)));
            self.nodes.pop();
            reclaimed += 1;
        }
        self.free_arena.sort_unstable();
        while self
            .free_arena
            .last()
            .is_some_and(|&slot| slot as usize == self.arena.len() - 1)
        {
            let slot = self.free_arena.pop().expect("checked non-empty");
            acc.push(TableAccess::VteWrite(self.arena_addr(slot)));
            self.arena.pop();
            reclaimed += 1;
        }
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> BTreeTable {
        BTreeTable::new(VaCodec::isca25(), 0x8000_0000, 0x9000_0000)
    }

    fn sc(k: u8) -> SizeClass {
        SizeClass::from_index(k).unwrap()
    }

    #[test]
    fn insert_and_lookup_resolves_perm() {
        let mut t = table();
        let mut acc = Vec::new();
        t.insert(sc(1), 3, 200, 0, &mut acc);
        t.set_perm(sc(1), 3, PdId(5), Perm::RW, &mut acc);
        let base = t.codec().base_of(sc(1), 3).unwrap();
        acc.clear();
        let rec = t.lookup(base + 50, PdId(5), &mut acc).unwrap();
        assert_eq!(rec.perm, Perm::RW);
        assert_eq!(rec.base, base);
        // Lookup must have walked at least one node plus the VTE.
        assert!(acc.iter().any(|a| matches!(a, TableAccess::NodeRead(_))));
        assert!(acc.iter().any(|a| matches!(a, TableAccess::VteRead(_))));
    }

    #[test]
    fn many_inserts_keep_invariants_and_depth_grows() {
        let mut t = table();
        let mut acc = Vec::new();
        for i in 0..500 {
            t.insert(sc(0), i, 128, 0, &mut acc);
            if i % 97 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
        assert_eq!(t.live_mappings(), 500);
        // A lookup in a 500-entry tree must touch more nodes than one in a
        // 1-entry tree (tree height > 1).
        acc.clear();
        let base = t.codec().base_of(sc(0), 250).unwrap();
        let _ = t.lookup(base, PdId(0), &mut acc);
        let reads = acc
            .iter()
            .filter(|a| matches!(a, TableAccess::NodeRead(_)))
            .count();
        assert!(
            reads >= 3,
            "expected ≥3 node reads in a deep tree, got {reads}"
        );
    }

    #[test]
    fn delete_rebalances_and_keeps_invariants() {
        let mut t = table();
        let mut acc = Vec::new();
        for i in 0..300 {
            t.insert(sc(0), i, 128, 0, &mut acc);
        }
        // Remove in an order that forces merges and borrows.
        for i in (0..300).step_by(2) {
            assert!(t.remove(sc(0), i, &mut acc));
            if i % 50 == 0 {
                t.check_invariants();
            }
        }
        for i in (1..300).step_by(2) {
            assert!(t.remove(sc(0), i, &mut acc));
        }
        t.check_invariants();
        assert_eq!(t.live_mappings(), 0);
        // All gone: lookups fail.
        let base = t.codec().base_of(sc(0), 100).unwrap();
        assert!(t.lookup(base, PdId(0), &mut acc).is_none());
    }

    #[test]
    fn lookup_costs_more_accesses_than_plain_list() {
        use crate::table::PlainListTable;
        let mut bt = table();
        let mut pl = PlainListTable::new(VaCodec::isca25(), 0x4000_0000);
        let mut acc_bt = Vec::new();
        let mut acc_pl = Vec::new();
        for i in 0..200 {
            bt.insert(sc(0), i, 128, 0, &mut acc_bt);
            pl.insert(sc(0), i, 128, 0, &mut acc_pl);
        }
        acc_bt.clear();
        acc_pl.clear();
        let base = bt.codec().base_of(sc(0), 117).unwrap();
        bt.lookup(base, PdId(0), &mut acc_bt).unwrap();
        pl.lookup(base, PdId(0), &mut acc_pl).unwrap();
        assert_eq!(acc_pl.len(), 1, "plain list: exactly one VTE read");
        assert!(
            acc_bt.len() > acc_pl.len(),
            "B-tree walk ({}) must out-access the plain list (1)",
            acc_bt.len()
        );
    }

    #[test]
    fn vte_addresses_stable_across_rebalancing() {
        let mut t = table();
        let mut acc = Vec::new();
        t.insert(sc(0), 0, 128, 0, &mut acc);
        let tagged = t.vte_addr(sc(0), 0);
        for i in 1..100 {
            t.insert(sc(0), i, 128, 0, &mut acc);
        }
        for i in 50..100 {
            t.remove(sc(0), i, &mut acc);
        }
        assert_eq!(t.vte_addr(sc(0), 0), tagged, "VLB tags must not move");
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut t = table();
        let mut acc = Vec::new();
        assert!(!t.remove(sc(0), 7, &mut acc));
        assert!(!t.set_perm(sc(0), 7, PdId(1), Perm::READ, &mut acc));
        assert!(t
            .transfer_perm(sc(0), 7, PdId(1), PdId(2), Perm::RWX, true, &mut acc)
            .is_none());
    }

    #[test]
    fn arena_slots_recycled() {
        let mut t = table();
        let mut acc = Vec::new();
        t.insert(sc(0), 0, 128, 0, &mut acc);
        let first = t.vte_addr(sc(0), 0);
        t.remove(sc(0), 0, &mut acc);
        t.insert(sc(0), 1, 128, 0, &mut acc);
        assert_eq!(t.vte_addr(sc(0), 1), first, "freed arena slot reused");
    }

    #[test]
    fn foreign_va_lookup_is_free_and_fails() {
        let mut t = table();
        let mut acc = Vec::new();
        assert!(t.lookup(0x7fff_0000_0000, PdId(0), &mut acc).is_none());
        assert!(acc.is_empty());
    }
}
