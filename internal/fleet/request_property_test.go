package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"stateowned/internal/serve"
	"stateowned/internal/world"
)

// requestGen draws randomized /v1 requests over every data endpoint,
// each emitted in several equivalent spellings back to back so the
// cached server sees them collide: ASN leading zeros, country-code case
// and surrounding spaces, name case, punctuation and legal suffixes,
// class case, cross_border bool spellings, and ?limit= / ?gen=
// spellings — malformed ones included.
type requestGen struct {
	rng     *rand.Rand
	asns    []world.ASN // dataset ASNs, topology ASNs and unknown ones
	ccs     []string
	orgs    []string // org IDs, plus one that does not exist
	names   []string
	victims []world.ASN
}

func (g *requestGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

func (g *requestGen) asn() string {
	if g.rng.Intn(8) == 0 {
		return g.pick([]string{"0", "00", "abc", "-1", "+5", "4294967296", "1e3", " 7"})
	}
	return fmt.Sprint(g.asns[g.rng.Intn(len(g.asns))])
}

// spellASN re-spells a well-formed ASN with leading zeros.
func (g *requestGen) spellASN(a string) string {
	if a == "" || a[0] < '1' || a[0] > '9' || strings.ContainsAny(a, "e ") {
		return a
	}
	return strings.Repeat("0", g.rng.Intn(3)) + a
}

func (g *requestGen) cc() string {
	if g.rng.Intn(8) == 0 {
		return g.pick([]string{"usa", "x", "1A", "ZZ", "zz"})
	}
	return g.pick(g.ccs)
}

func (g *requestGen) spellCC(cc string) string {
	switch g.rng.Intn(4) {
	case 0:
		return strings.ToLower(cc)
	case 1:
		return " " + cc + " "
	case 2:
		if len(cc) == 2 {
			return cc[:1] + strings.ToLower(cc[1:])
		}
	}
	return cc
}

func (g *requestGen) spellName(name string) string {
	switch g.rng.Intn(6) {
	case 0:
		return strings.ToUpper(name)
	case 1:
		return strings.ToLower(name)
	case 2:
		return name + " Ltd."
	case 3:
		return strings.ReplaceAll(name, " ", "-")
	case 4:
		return " " + name + "!"
	}
	return name
}

func (g *requestGen) spellBool(b string) string {
	switch b {
	case "true":
		return g.pick([]string{"true", "1", "t", "T", "TRUE", "True"})
	case "false":
		return g.pick([]string{"false", "0", "f", "F", "FALSE", "False"})
	}
	return b
}

// gen draws an optional ?gen= value; "-" means no pin at all.
func (g *requestGen) gen() string {
	if g.rng.Intn(3) > 0 {
		return "-"
	}
	return g.pick([]string{"0", "00", "+0", "1", "01", "", "-1", "abc", "99", " 1"})
}

func (g *requestGen) spellGen(gen string) string {
	switch gen {
	case "0", "1":
		return g.pick([]string{gen, "0" + gen, "+" + gen})
	}
	return gen
}

// target assembles a request target from a path and query pairs; a
// query value of "-" leaves the parameter out.
func target(path string, kv ...string) string {
	var q []string
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i+1] != "-" {
			q = append(q, kv[i]+"="+url.QueryEscape(kv[i+1]))
		}
	}
	if len(q) == 0 {
		return path
	}
	return path + "?" + strings.Join(q, "&")
}

// group draws one request and returns it in one to three spellings.
func (g *requestGen) group() []string {
	n := 1 + g.rng.Intn(3)
	out := make([]string, 0, n)
	gen := g.gen()
	switch g.rng.Intn(11) {
	case 0:
		a := g.asn()
		for i := 0; i < n; i++ {
			out = append(out, target("/v1/asn/"+url.PathEscape(g.spellASN(a)), "gen", g.spellGen(gen)))
		}
	case 1:
		cc := g.cc()
		for i := 0; i < n; i++ {
			out = append(out, target("/v1/country/"+url.PathEscape(g.spellCC(cc)), "gen", g.spellGen(gen)))
		}
	case 2:
		id := g.pick(g.orgs)
		for i := 0; i < n; i++ {
			out = append(out, target("/v1/org/"+url.PathEscape(id), "gen", g.spellGen(gen)))
		}
	case 3:
		name := g.pick(g.names)
		limit := g.pick([]string{"-", "-", "3", "10", "100", "0", "-1", "x", ""})
		for i := 0; i < n; i++ {
			l := limit
			if l == "3" {
				l = g.pick([]string{"3", "03", "+3"})
			}
			out = append(out, target("/v1/search", "name", g.spellName(name), "limit", l, "gen", g.spellGen(gen)))
		}
	case 4:
		for i := 0; i < n; i++ {
			out = append(out, target("/v1/dataset", "gen", g.spellGen(gen)))
		}
	case 5:
		a := g.asn()
		class := g.pick([]string{"-", "provider", "customer", "peer", "sibling", "transit", ""})
		for i := 0; i < n; i++ {
			c := class
			if g.rng.Intn(2) == 0 {
				c = strings.ToUpper(c)
			}
			out = append(out, target("/v1/graph/neighbors/"+url.PathEscape(g.spellASN(a)), "class", c, "gen", g.spellGen(gen)))
		}
	case 6, 7:
		ep := "/v1/graph/upstreams/"
		if g.rng.Intn(2) == 0 {
			ep = "/v1/graph/cone/"
		}
		a := g.asn()
		for i := 0; i < n; i++ {
			out = append(out, target(ep+url.PathEscape(g.spellASN(a)), "gen", g.spellGen(gen)))
		}
	case 8:
		from, to := g.asn(), g.asn()
		if g.rng.Intn(10) == 0 {
			to = "-"
		}
		for i := 0; i < n; i++ {
			out = append(out, target("/v1/graph/path", "from", g.spellASN(from), "to", g.spellASN(to), "gen", g.spellGen(gen)))
		}
	case 9:
		victim := "-"
		if g.rng.Intn(2) == 0 {
			victim = fmt.Sprint(g.victims[g.rng.Intn(len(g.victims))])
			if g.rng.Intn(6) == 0 {
				victim = g.asn()
			}
		}
		cc := g.pick([]string{"-", "-", g.cc()})
		xb := g.pick([]string{"-", "true", "false", "maybe", ""})
		for i := 0; i < n; i++ {
			c := cc
			if c != "-" {
				c = g.spellCC(c)
			}
			out = append(out, target("/v1/hijacks", "victim", g.spellASN(victim), "cc", c,
				"cross_border", g.spellBool(xb), "gen", g.spellGen(gen)))
		}
	default:
		from := g.pick([]string{"0", "1", "x", "99", "-"})
		to := g.pick([]string{"0", "1", "", "-1"})
		for i := 0; i < n; i++ {
			out = append(out, target("/v1/diff", "from", g.spellGen(from), "to", g.spellGen(to)))
		}
	}
	return out
}

// TestRequestSpellingsCachedUncachedRouter is the parse-once property:
// over randomized requests in equivalent and malformed spellings, a
// cached single-process server, an uncached one and a 2-shard router
// answer identically — status, body and X-Generation — at two live
// generations with pins across both.
func TestRequestSpellingsCachedUncachedRouter(t *testing.T) {
	cfg := fleetConfig{seed: 42, scale: 0.05, shards: 2, retain: 8, hijack: 0.75, rov: 0.25}
	ref := shardStore(cfg)
	tf := buildFleet(t, cfg)
	if ref.Advance() == nil {
		t.Fatal("reference store quarantined generation 1")
	}
	if gen, err := tf.coord.FlipOnce(context.Background()); err != nil || gen != 1 {
		t.Fatalf("FlipOnce = %d, %v", gen, err)
	}
	uncached := serve.NewDynamic(ref.Source(), serve.Options{})
	cached := serve.NewDynamic(ref.Source(), serve.Options{CacheSize: 256})

	cur := ref.Current()
	ds := cur.Result.Dataset
	g := &requestGen{ccs: append([]string(nil), cur.World.Countries...), orgs: []string{"ORG-NOPE"}}
	g.asns = append(g.asns, ds.AllASNs()...)
	topo := cur.Result.Topology
	for i := 0; i < topo.NumASes(); i += 7 {
		g.asns = append(g.asns, topo.ASNAt(i))
	}
	g.asns = append(g.asns, 49999, 4294967294)
	for i := range ds.Organizations {
		g.orgs = append(g.orgs, ds.Organizations[i].OrgID)
		g.names = append(g.names, ds.Organizations[i].OrgName)
	}
	g.names = append(g.names, "telecom", "zzzzqqqq", "", "...")
	for _, d := range cur.Result.Hijacks.Detections {
		g.victims = append(g.victims, d.Victim)
	}
	if len(g.victims) == 0 {
		t.Fatal("reference run detected nothing; the hijack spellings are vacuous")
	}

	seeds := []int64{42, 7, 1}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		g.rng = rand.New(rand.NewSource(seed))
		var paths []string
		for len(paths) < 300 {
			paths = append(paths, g.group()...)
		}
		for _, path := range paths {
			want := singleGet(uncached, path)
			for _, side := range []struct {
				name string
				rec  func() (int, []byte, http.Header)
			}{
				{"cached", func() (int, []byte, http.Header) {
					r := singleGet(cached, path)
					return r.Code, r.Body.Bytes(), r.Header()
				}},
				{"router", func() (int, []byte, http.Header) {
					r := tf.get(path)
					return r.Code, r.Body.Bytes(), r.Header()
				}},
			} {
				code, body, hdr := side.rec()
				if code != want.Code || !bytes.Equal(body, want.Body.Bytes()) ||
					hdr.Get(serve.GenerationHeader) != want.Header().Get(serve.GenerationHeader) {
					t.Fatalf("seed %d: GET %s: %s (%d, gen %q) %s\nuncached (%d, gen %q) %s", seed, path,
						side.name, code, hdr.Get(serve.GenerationHeader), body,
						want.Code, want.Header().Get(serve.GenerationHeader), want.Body)
				}
			}
		}
	}
}
