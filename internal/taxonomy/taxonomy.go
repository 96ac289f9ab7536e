// Package taxonomy implements the tree-shaped hierarchical topic directory C
// of the paper's problem formulation (§1.1): a Yahoo!-like tree whose nodes
// the user marks as good (the crawl targets). Ancestors of good nodes are
// path nodes; descendants of good nodes are subsumed; everything else is
// null for the current crawl.
package taxonomy

import (
	"fmt"
	"sort"
)

// NodeID identifies a topic. The paper uses 16-bit class IDs; we keep int32
// for headroom while staying faithful to small dense IDs.
type NodeID int32

// Mark is a node's role in the current crawl (the "type" column of the
// paper's TAXONOMY table).
type Mark int

// Node marks. Subsumed is derived (descendant of a good node), not stored.
const (
	MarkNull Mark = iota
	MarkGood
	MarkPath
)

// String names the mark as the paper's TAXONOMY.type column does.
func (m Mark) String() string {
	switch m {
	case MarkGood:
		return "good"
	case MarkPath:
		return "path"
	default:
		return "null"
	}
}

// Node is one topic in the tree.
type Node struct {
	ID       NodeID
	Name     string
	Parent   *Node
	Children []*Node
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Path returns the node's name path from the root, e.g. "recreation/cycling".
func (n *Node) Path() string {
	if n.Parent == nil {
		return n.Name
	}
	return n.Parent.Path() + "/" + n.Name
}

// Ancestors returns the chain from the node's parent up to the root.
func (n *Node) Ancestors() []*Node {
	var out []*Node
	for p := n.Parent; p != nil; p = p.Parent {
		out = append(out, p)
	}
	return out
}

// Tree is the topic directory plus the user's good-set marking.
type Tree struct {
	Root   *Node
	byID   map[NodeID]*Node
	byName map[string]*Node
	marks  map[NodeID]Mark
	nextID NodeID
}

// New creates a tree containing only the root topic.
func New() *Tree {
	t := &Tree{
		byID:   make(map[NodeID]*Node),
		byName: make(map[string]*Node),
		marks:  make(map[NodeID]Mark),
		nextID: 1,
	}
	t.Root = &Node{ID: t.nextID, Name: "root"}
	t.byID[t.Root.ID] = t.Root
	t.byName["root"] = t.Root
	t.nextID++
	return t
}

// Add creates a child topic under parent. Names must be globally unique
// (they are lookup keys for administration commands).
func (t *Tree) Add(parent *Node, name string) (*Node, error) {
	if parent == nil {
		return nil, fmt.Errorf("taxonomy: nil parent for %q", name)
	}
	if _, dup := t.byName[name]; dup {
		return nil, fmt.Errorf("taxonomy: duplicate topic %q", name)
	}
	n := &Node{ID: t.nextID, Name: name, Parent: parent}
	t.nextID++
	parent.Children = append(parent.Children, n)
	t.byID[n.ID] = n
	t.byName[name] = n
	return n, nil
}

// MustAdd is Add for static tree construction; it panics on error.
func (t *Tree) MustAdd(parent *Node, name string) *Node {
	n, err := t.Add(parent, name)
	if err != nil {
		panic(err)
	}
	return n
}

// Node returns the topic with the given ID, or nil.
func (t *Tree) Node(id NodeID) *Node { return t.byID[id] }

// ByName returns the topic with the given name, or nil.
func (t *Tree) ByName(name string) *Node { return t.byName[name] }

// Len returns the number of topics including the root.
func (t *Tree) Len() int { return len(t.byID) }

// Leaves returns all leaf topics in ID order.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	for _, n := range t.byID {
		if n.IsLeaf() {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Internal returns all internal (non-leaf) topics in root-down topological
// order (parents before children), which is the order BulkProbe evaluation
// must visit them.
func (t *Tree) Internal() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// MarkGood marks a topic as good and its proper ancestors as path nodes.
// Per §1.1, no good topic may be an ancestor or descendant of another good
// topic.
func (t *Tree) MarkGood(id NodeID) error {
	n := t.byID[id]
	if n == nil {
		return fmt.Errorf("taxonomy: no topic %d", id)
	}
	if n == t.Root {
		return fmt.Errorf("taxonomy: the root cannot be good")
	}
	for _, a := range n.Ancestors() {
		if t.marks[a.ID] == MarkGood {
			return fmt.Errorf("taxonomy: ancestor %q of %q is already good", a.Name, n.Name)
		}
	}
	var clash error
	t.walkSubtree(n, func(d *Node) {
		if d != n && t.marks[d.ID] == MarkGood && clash == nil {
			clash = fmt.Errorf("taxonomy: descendant %q of %q is already good", d.Name, n.Name)
		}
	})
	if clash != nil {
		return clash
	}
	t.marks[n.ID] = MarkGood
	for _, a := range n.Ancestors() {
		t.marks[a.ID] = MarkPath
	}
	return nil
}

// Unmark clears a good mark and recomputes the path marking. It is the
// administrative operation behind changing crawl goals mid-run (§3.7).
func (t *Tree) Unmark(id NodeID) {
	if t.marks[id] != MarkGood {
		return
	}
	delete(t.marks, id)
	// Recompute path marks from scratch.
	for nid, m := range t.marks {
		if m == MarkPath {
			delete(t.marks, nid)
		}
	}
	for nid, m := range t.marks {
		if m == MarkGood {
			for _, a := range t.byID[nid].Ancestors() {
				t.marks[a.ID] = MarkPath
			}
		}
	}
}

// Mark returns the node's mark for the current crawl.
func (t *Tree) Mark(id NodeID) Mark { return t.marks[id] }

// Good returns the good topics in ID order.
func (t *Tree) Good() []*Node {
	var out []*Node
	for id, m := range t.marks {
		if m == MarkGood {
			out = append(out, t.byID[id])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IsGoodOrSubsumed reports whether the topic is good or lies in the subtree
// of a good topic (a "subsumed" topic per §1.1).
func (t *Tree) IsGoodOrSubsumed(id NodeID) bool {
	n := t.byID[id]
	for ; n != nil; n = n.Parent {
		if t.marks[n.ID] == MarkGood {
			return true
		}
	}
	return false
}

func (t *Tree) walkSubtree(n *Node, fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		t.walkSubtree(c, fn)
	}
}
