package main

import (
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"

	"stateowned/internal/world"
)

// Endpoints of the request mix, in the order per-endpoint metrics use.
const (
	epASN = iota
	epCountry
	epSearch
	epGraphCone
	epOrg
	epGraphPath
	numEndpoints
)

// endpointNames label per-endpoint metrics (net.<name>_p50_us).
var endpointNames = [numEndpoints]string{"asn", "country", "search", "graph_cone", "org", "graph_path"}

// request is one generated HTTP request of the mix.
type request struct {
	ep   int
	path string
}

// keySpace is the population requests draw their keys from. It comes
// from the served generation, so every key names something that exists
// (or, for arbitrary world ASNs, something that may or may not be
// state-owned).
type keySpace struct {
	ownedASNs []world.ASN // state-owned ASNs in the dataset
	worldASNs []world.ASN // every ASN of the world
	countries []string
	orgNames  []string
	orgIDs    []string
}

// mix draws requests in the benchmark's fixed proportions: 50% /v1/asn
// (half state-owned, half arbitrary world ASNs), 15% /v1/country, 15%
// /v1/search by organization name, 15% /v1/graph/cone, and 5% split
// between /v1/org and /v1/graph/path. Keys are uniform over the key
// space. The same seed gives the same sequence.
type mix struct {
	r  *rand.Rand
	ks keySpace
}

func newMix(seed uint64, ks keySpace) *mix {
	return &mix{r: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), ks: ks}
}

func (m *mix) asn(list []world.ASN) world.ASN { return list[m.r.IntN(len(list))] }

func (m *mix) pick(list []string) string { return list[m.r.IntN(len(list))] }

func (m *mix) next() request {
	u := m.r.IntN(200)
	switch {
	case u < 50:
		return request{epASN, fmt.Sprintf("/v1/asn/%d", m.asn(m.ks.ownedASNs))}
	case u < 100:
		return request{epASN, fmt.Sprintf("/v1/asn/%d", m.asn(m.ks.worldASNs))}
	case u < 130:
		return request{epCountry, "/v1/country/" + m.pick(m.ks.countries)}
	case u < 160:
		return request{epSearch, "/v1/search?name=" + url.QueryEscape(m.pick(m.ks.orgNames))}
	case u < 190:
		return request{epGraphCone, fmt.Sprintf("/v1/graph/cone/%d", m.asn(m.ks.worldASNs))}
	case u < 195:
		return request{epOrg, "/v1/org/" + url.PathEscape(m.pick(m.ks.orgIDs))}
	default:
		from, to := m.asn(m.ks.worldASNs), m.asn(m.ks.ownedASNs)
		return request{epGraphPath, "/v1/graph/path?from=" + strconv.Itoa(int(from)) + "&to=" + strconv.Itoa(int(to))}
	}
}

// sequence returns the first n requests of the seeded mix.
func sequence(seed uint64, ks keySpace, n int) []request {
	m := newMix(seed, ks)
	out := make([]request, n)
	for i := range out {
		out[i] = m.next()
	}
	return out
}

// hotSequence returns n requests drawn uniformly from a hot set: the
// first k distinct requests of the seeded mix. With k below the
// response cache's capacity, the whole set stays cached.
func hotSequence(seed uint64, ks keySpace, k, n int) []request {
	m := newMix(seed, ks)
	seen := map[string]bool{}
	var hot []request
	for tries := 0; len(hot) < k && tries < 100*k; tries++ {
		r := m.next()
		if !seen[r.path] {
			seen[r.path] = true
			hot = append(hot, r)
		}
	}
	out := make([]request, n)
	for i := range out {
		out[i] = hot[m.r.IntN(len(hot))]
	}
	return out
}
