package netsim

import (
	"strconv"
	"strings"
	"testing"
)

// atoiParseAddr is the reference grammar ParseAddr must match: split on
// dots, exactly four parts, each accepted by strconv.Atoi in 0..255.
func atoiParseAddr(s string) (Addr, bool) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, false
	}
	var a Addr
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, false
		}
		a = a<<8 | Addr(v)
	}
	return a, true
}

// TestParseAddrGrammar pins the octet grammar at its edges: signs,
// leading zeros, range, empty octets and octet count.
func TestParseAddrGrammar(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string // "" when the input must be rejected
	}{
		{"1.11.11.2", "1.11.11.2"},
		{"0.0.0.0", "0.0.0.0"},
		{"255.255.255.255", "255.255.255.255"},
		{"+1.2.3.4", "1.2.3.4"},
		{"1.+2.3.+4", "1.2.3.4"},
		{"-0.0.0.1", "0.0.0.1"},
		{"1.-00.3.4", "1.0.3.4"},
		{"001.002.003.004", "1.2.3.4"},
		{"0000000000000000000000255.1.1.1", "255.1.1.1"},
		{"-1.2.3.4", ""},
		{"1.2.3.-255", ""},
		{"256.1.1.1", ""},
		{"1.1.1.256", ""},
		{"1.1.1.99999999999999999999", ""},
		{"1..3.4", ""},
		{".1.2.3", ""},
		{"1.2.3.", ""},
		{"", ""},
		{"1.2.3", ""},
		{"1.2.3.4.5", ""},
		{"+.1.2.3", ""},
		{"-.1.2.3", ""},
		{"+-1.2.3.4", ""},
		{"1 .2.3.4", ""},
		{" 1.2.3.4", ""},
		{"1.2.3.4 ", ""},
		{"0x1.2.3.4", ""},
		{"1_0.2.3.4", ""},
		{"a.b.c.d", ""},
	} {
		a, err := ParseAddr(tc.in)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("ParseAddr(%q) = %v, want rejection", tc.in, a)
		case tc.want != "" && err != nil:
			t.Errorf("ParseAddr(%q): %v, want %s", tc.in, err, tc.want)
		case tc.want != "" && a.String() != tc.want:
			t.Errorf("ParseAddr(%q) = %v, want %s", tc.in, a, tc.want)
		}
		if ref, ok := atoiParseAddr(tc.in); ok != (err == nil) || (ok && ref != a) {
			t.Errorf("ParseAddr(%q) = %v, %v; Atoi grammar gives %v, %v", tc.in, a, err, ref, ok)
		}
	}
}

// TestParseAddrMatchesAtoi compares ParseAddr with the Atoi grammar on
// every string of up to seven characters — the shortest address's
// length — over an alphabet that reaches each branch: digits, dots,
// signs and a stray byte. The table above covers longer forms.
func TestParseAddrMatchesAtoi(t *testing.T) {
	const alphabet = "0256.+-x"
	const max = 7
	buf := make([]byte, 0, max)
	var walk func()
	walk = func() {
		s := string(buf)
		a, err := ParseAddr(s)
		if ref, ok := atoiParseAddr(s); ok != (err == nil) || (ok && ref != a) {
			t.Fatalf("ParseAddr(%q) = %v, %v; Atoi grammar gives %v, %v", s, a, err, ref, ok)
		}
		if len(buf) == max {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			buf = append(buf, alphabet[i])
			walk()
			buf = buf[:len(buf)-1]
		}
	}
	walk()
}

// FuzzParseAddr checks ParseAddr against the Atoi grammar on arbitrary
// input.
func FuzzParseAddr(f *testing.F) {
	for _, s := range []string{"1.11.11.2", "+1.-0.001.255", "256.1.1.1", "1..2.3", "1.2.3.4.5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAddr(s)
		if ref, ok := atoiParseAddr(s); ok != (err == nil) || (ok && ref != a) {
			t.Fatalf("ParseAddr(%q) = %v, %v; Atoi grammar gives %v, %v", s, a, err, ref, ok)
		}
	})
}
