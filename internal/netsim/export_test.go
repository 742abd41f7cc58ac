package netsim

// Reserved reports how many nodes and links nw's storage chunks hold,
// used or not, so tests can bound the slack chunking leaves.
func Reserved(nw *Network) (nodes, links int) {
	return nw.nodeSlab.made, nw.linkSlab.made
}

// CreationOrder returns nw's nodes in the order they were added, as the
// node slab hands them out.
func CreationOrder(nw *Network) []*Node {
	var out []*Node
	nw.nodeSlab.each(func(nd *Node) { out = append(out, nd) })
	return out
}
