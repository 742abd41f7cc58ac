// Package netsim is a packet-level online network simulator: the analog of
// the modified VINT/NSE simulator the MicroGrid paper integrated (§2.4.2).
// It models arbitrary topologies of hosts, routers and links; links have
// bandwidth, propagation delay, drop-tail queues and an MTU; routing is
// static shortest-path; and two transports are provided — unreliable
// datagrams and a TCP-Reno-like reliable byte stream with message framing.
//
// All behaviour is in simulated time on a simcore.Engine, so the simulator
// "delivers the communications to each destination according to the network
// topology at the expected time", which is the property the MicroGrid
// requires of its network component.
package netsim

import "fmt"

// Addr is an IPv4-style address. Virtual grid hosts get addresses like
// 1.11.11.2 (as in the paper's GIS records); the zero Addr is invalid.
type Addr uint32

// Port identifies a transport endpoint within a node.
type Port uint16

// MakeAddr builds an Addr from four octets.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses dotted-quad notation ("1.11.11.2"). Each of the four
// octets is what strconv.Atoi accepts in 0..255: an optional sign, then
// one or more decimal digits, so "+1", "-0" and "001" are octets. It
// scans s in place, without splitting it into substrings.
func ParseAddr(s string) (Addr, error) {
	var a Addr
	i, k := 0, 0
	for ; k < 4; k++ {
		if k > 0 {
			if i == len(s) || s[i] != '.' {
				break
			}
			i++
		}
		neg := i < len(s) && s[i] == '-'
		if neg || i < len(s) && s[i] == '+' {
			i++
		}
		start, v := i, 0
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9' && v <= 255; i++ {
			v = v*10 + int(s[i]-'0')
		}
		if i == start || v > 255 || neg && v != 0 {
			break
		}
		a = a<<8 | Addr(v)
	}
	if k < 4 || i != len(s) {
		return 0, fmt.Errorf("netsim: invalid address %q", s)
	}
	return a, nil
}

// MustParseAddr is ParseAddr that panics on error, for literals in tests
// and configuration tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}
