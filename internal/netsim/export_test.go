package netsim

// Reserved reports how many nodes and links nw's storage chunks hold,
// used or not, so tests can bound the slack chunking leaves.
func Reserved(nw *Network) (nodes, links int) {
	return nw.nodeSlab.made, nw.linkSlab.made
}
