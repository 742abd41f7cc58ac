package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"

	"microgrid/internal/netsim"
	"microgrid/internal/oracle"
)

// defaultSeed is the seed whose report digests are committed in
// digests.txt.
const defaultSeed = 1

//go:embed digests.txt
var digestsText string

// parseDigests reads "<workload> <sha256>" lines; '#' starts a comment.
func parseDigests(text string) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || len(f[1]) != 64 {
			return nil, fmt.Errorf("digests.txt:%d: want '<workload> <sha256>'", n)
		}
		out[f[0]] = f[1]
	}
	return out, sc.Err()
}

func digest(report string) string {
	sum := sha256.Sum256([]byte(report))
	return hex.EncodeToString(sum[:])
}

// checkConservation runs the oracle's packet-accounting invariant over
// the network's totals and every link direction.
func checkConservation(nw *netsim.Network) error {
	var dirs []netsim.DirectionStats
	for _, l := range nw.Links() {
		st := l.Stats()
		dirs = append(dirs, st[0], st[1])
	}
	if vs := oracle.CheckConservation(nw.TotalStats(), dirs); len(vs) > 0 {
		return fmt.Errorf("conservation: %d violations, first: %s", len(vs), vs[0].Detail)
	}
	return nil
}

// checkDigest compares a report digest with the expected one; an empty
// want accepts any digest.
func checkDigest(got, want string) error {
	if want != "" && got != want {
		return fmt.Errorf("report digest %s, want %s", got, want)
	}
	return nil
}
