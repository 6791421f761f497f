package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"stateowned/internal/expand"
	"stateowned/internal/serve"
	"stateowned/internal/world"
)

// --- synthetic merge fixtures (no pipeline needed) -------------------------

// syntheticOrg builds a minimal org row for merge-order tests.
func syntheticOrg(id, name, cc string, asns ...world.ASN) serve.OrgResponse {
	return serve.OrgResponse{
		Organization: &expand.OrgRecord{
			OrgID:       id,
			OrgName:     name,
			OwnershipCC: cc,
		},
		ASNs: asns,
	}
}

// syntheticCountryLegs fabricates per-shard country bodies with a
// replicated boundary org (ORG-B on shards 0 and 1) and distinct
// minority records.
func syntheticCountryLegs(t testing.TB) []leg {
	t.Helper()
	mk := func(shard int, orgs []serve.OrgResponse, minority []expand.MinorityRecord) leg {
		body, err := serve.JSONBody(serve.CountryResponse{CC: "AO", Organizations: orgs, Minority: minority})
		if err != nil {
			t.Fatalf("encoding leg: %v", err)
		}
		return leg{shard: shard, status: http.StatusOK, body: body, gen: "3"}
	}
	return []leg{
		mk(0,
			[]serve.OrgResponse{
				syntheticOrg("ORG-B", "Boundary Telecom", "AO", 100, 900),
				syntheticOrg("ORG-A", "Angola Net", "AO", 120),
			},
			[]expand.MinorityRecord{{OrgName: "Mixed Holdings", CC: "AO", Owner: "AO", Share: 0.3, ASNs: []world.ASN{130}}},
		),
		mk(1,
			[]serve.OrgResponse{
				syntheticOrg("ORG-B", "Boundary Telecom", "AO", 100, 900),
				syntheticOrg("ORG-C", "Coastal Carrier", "AO", 910),
			},
			[]expand.MinorityRecord{{OrgName: "Harbor Net", CC: "AO", Owner: "PT", Share: 0.2, ASNs: []world.ASN{920}}},
		),
		mk(2,
			[]serve.OrgResponse{},
			nil,
		),
	}
}

// syntheticSearchLegs fabricates per-shard search bodies; shard 2 fell
// back to a full scan (no token candidates locally) and must be dropped
// by the merge while shards 0/1 carry token hits.
func syntheticSearchLegs(t testing.TB) []leg {
	t.Helper()
	mk := func(shard int, fallback bool, hits ...serve.SearchHitRecord) leg {
		body, err := serve.JSONBody(serve.SearchResponse{Query: "telecom", Hits: hits, Fallback: fallback})
		if err != nil {
			t.Fatalf("encoding leg: %v", err)
		}
		return leg{shard: shard, status: http.StatusOK, body: body, gen: "3"}
	}
	hit := func(id, name string, score float64, asns ...world.ASN) serve.SearchHitRecord {
		o := syntheticOrg(id, name, "AO", asns...)
		return serve.SearchHitRecord{Score: score, Organization: o.Organization, ASNs: o.ASNs}
	}
	return []leg{
		mk(0, false,
			hit("ORG-B", "Boundary Telecom", 0.9, 100, 900),
			hit("ORG-A", "Angola Telecom", 0.8, 120),
		),
		mk(1, false,
			hit("ORG-B", "Boundary Telecom", 0.9, 100, 900),
			hit("ORG-C", "Coastal Telecom", 0.8, 910),
		),
		mk(2, true,
			hit("ORG-Z", "Unrelated Utility", 0.65, 930),
		),
	}
}

// permute returns legs reordered by a seeded Fisher–Yates shuffle (a
// tiny LCG keeps the fuzz target free of math/rand).
func permute(legs []leg, seed uint64) []leg {
	out := append([]leg(nil), legs...)
	state := seed | 1
	for i := len(out) - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestMergeCountryDeterministic proves the country merge: replicated
// orgs deduplicate, ordering is canonical, and the result is identical
// for any leg arrival order.
func TestMergeCountryDeterministic(t *testing.T) {
	legs := syntheticCountryLegs(t)
	base, err := mergeCountry("AO", legs, Envelope{})
	if err != nil {
		t.Fatal(err)
	}
	var resp CountryFleetResponse
	decodeJSON(t, base, &resp)
	wantOrder := []string{"ORG-A", "ORG-B", "ORG-C"}
	if len(resp.Organizations) != len(wantOrder) {
		t.Fatalf("merged %d orgs, want %d (replica not deduplicated?)", len(resp.Organizations), len(wantOrder))
	}
	for i, id := range wantOrder {
		if resp.Organizations[i].Organization.OrgID != id {
			t.Fatalf("org[%d] = %s, want %s", i, resp.Organizations[i].Organization.OrgID, id)
		}
	}
	if len(resp.Minority) != 2 || resp.Minority[0].OrgName != "Harbor Net" {
		t.Fatalf("minority merge wrong: %+v", resp.Minority)
	}
	if resp.Partial || len(resp.ShardsFailed) != 0 {
		t.Fatalf("complete merge carries a partial envelope: %s", base)
	}
	for seed := uint64(1); seed < 20; seed++ {
		got, err := mergeCountry("AO", permute(legs, seed), Envelope{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base) {
			t.Fatalf("merge depends on arrival order (seed %d):\n%s\nvs\n%s", seed, got, base)
		}
	}
}

// TestMergeSearchFallbackRule proves the fallback partition semantics:
// a shard that fell back to a full scan contributes nothing while any
// shard holds token candidates, and contributes normally when every
// shard fell back.
func TestMergeSearchFallbackRule(t *testing.T) {
	legs := syntheticSearchLegs(t)
	body, err := mergeSearch(legs, 10, Envelope{})
	if err != nil {
		t.Fatal(err)
	}
	var resp SearchFleetResponse
	decodeJSON(t, body, &resp)
	if resp.Fallback {
		t.Fatal("merged response marked fallback although shards 0/1 had token hits")
	}
	for _, h := range resp.Hits {
		if h.Organization.OrgID == "ORG-Z" {
			t.Fatal("fallback shard's full-scan hit leaked into a token-candidate merge")
		}
	}
	if len(resp.Hits) != 3 || resp.Hits[0].Organization.OrgID != "ORG-B" {
		t.Fatalf("merged hits wrong: %+v", resp.Hits)
	}

	// All-fallback: every shard scanned, so the union is the answer.
	for i := range legs {
		var sr serve.SearchResponse
		decodeJSON(t, legs[i].body, &sr)
		sr.Fallback = true
		legs[i].body = mustJSON(t, sr)
	}
	body, err = mergeSearch(legs, 10, Envelope{})
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, body, &resp)
	if !resp.Fallback {
		t.Fatal("all-fallback merge not marked fallback")
	}
	found := false
	for _, h := range resp.Hits {
		if h.Organization.OrgID == "ORG-Z" {
			found = true
		}
	}
	if !found {
		t.Fatal("all-fallback merge dropped the fallback hit")
	}
}

// FuzzScatterMerge is the arrival-order independence proof: for any
// permutation of shard replies (country and search), the merged body is
// byte-identical to the identity-order merge.
func FuzzScatterMerge(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(7))
	f.Add(uint64(1 << 40))
	countryLegs := syntheticCountryLegs(f)
	searchLegs := syntheticSearchLegs(f)
	countryBase, err := mergeCountry("AO", countryLegs, Envelope{})
	if err != nil {
		f.Fatal(err)
	}
	searchBase, err := mergeSearch(searchLegs, 10, Envelope{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		got, err := mergeCountry("AO", permute(countryLegs, seed), Envelope{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, countryBase) {
			t.Fatalf("country merge depends on arrival order (seed %d)", seed)
		}
		got, err = mergeSearch(permute(searchLegs, seed), 10, Envelope{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, searchBase) {
			t.Fatalf("search merge depends on arrival order (seed %d)", seed)
		}
	})
}

// --- differential: fleet ≡ single process ----------------------------------

// TestFleetMatchesSingleProcess is the end-to-end differential proof:
// for seeds {7, 21, 42}, a 2-shard and a 4-shard fleet answer every
// /v1 query byte-identically (status, body and X-Generation) to a
// single-process server over the same generation — router, partition,
// carve, scatter, and merge all cancel out exactly.
func TestFleetMatchesSingleProcess(t *testing.T) {
	seeds := []uint64{7, 21, 42}
	if testing.Short() {
		seeds = seeds[2:]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := fleetConfig{seed: seed, scale: 0.05}
			single := serve.NewDynamic(shardStore(cfg).Source(), serve.Options{})
			for _, shards := range []int{2, 4} {
				cfg := cfg
				cfg.shards = shards
				tf := buildFleet(t, cfg)
				ds := tf.shards[0].Store().Current().Result.Dataset

				var paths []string
				ccs := append([]string(nil), tf.shards[0].Store().Current().World.Countries...)
				ccs = append(ccs, "ZZ")
				for _, cc := range ccs {
					paths = append(paths, "/v1/country/"+cc)
				}
				for _, a := range ds.AllASNs() {
					paths = append(paths, fmt.Sprintf("/v1/asn/%d", a))
				}
				paths = append(paths, "/v1/asn/49999") // never state-owned
				for i := range ds.Organizations {
					paths = append(paths, "/v1/org/"+ds.Organizations[i].OrgID)
				}
				paths = append(paths, "/v1/org/ORG-NOPE")
				for i := 0; i < len(ds.Organizations) && i < 5; i++ {
					paths = append(paths, "/v1/search?name="+urlQueryEscape(ds.Organizations[i].OrgName))
				}
				paths = append(paths,
					"/v1/search?name=telecom",
					"/v1/search?name=zzzzqqqq", // no shared token anywhere: full-scan fallback
					"/v1/search?name=telecom&limit=3",
					"/v1/dataset",
				)
				// Malformed generation pins and an unknown endpoint: the
				// router answers these from the shared parser and spine.
				a, cc := ds.AllASNs()[0], ccs[0]
				paths = append(paths,
					fmt.Sprintf("/v1/asn/%d?gen=-1", a),
					fmt.Sprintf("/v1/asn/%d?gen=", a),
					fmt.Sprintf("/v1/asn/%d?gen=abc", a),
					"/v1/country/"+cc+"?gen=-1",
					"/v1/search?name=telecom&gen=",
					"/v1/org/ORG-NOPE?gen=x",
					"/v1/dataset?gen=-1",
					"/v1/dataset?gen=",
					"/v1/nope",
				)

				for _, path := range paths {
					want := httptest.NewRecorder()
					single.ServeHTTP(want, httptest.NewRequest(http.MethodGet, path, nil))
					got := tf.get(path)
					if got.Code != want.Code {
						t.Fatalf("%d shards %s: fleet %d, single %d\nfleet: %s\nsingle: %s",
							shards, path, got.Code, want.Code, got.Body, want.Body)
					}
					if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Fatalf("%d shards %s: bodies differ\nfleet:  %s\nsingle: %s",
							shards, path, got.Body, want.Body)
					}
					if g, w := got.Header().Get(serve.GenerationHeader), want.Header().Get(serve.GenerationHeader); g != w {
						t.Fatalf("%d shards %s: X-Generation %q vs %q", shards, path, g, w)
					}
				}
			}
		})
	}
}

// TestFleetMatchesSingleAfterReload re-proves the differential after a
// two-phase flip: fleet generation 1 must equal single-process
// generation 1, including ?gen=0 time travel.
func TestFleetMatchesSingleAfterReload(t *testing.T) {
	cfg := fleetConfig{seed: 42, scale: 0.05, shards: 2}
	singleStore := shardStore(cfg)
	singleStore.Advance()
	single := serve.NewDynamic(singleStore.Source(), serve.Options{})

	tf := buildFleet(t, cfg)
	if gen, err := tf.coord.FlipOnce(context.Background()); err != nil || gen != 1 {
		t.Fatalf("FlipOnce = %d, %v", gen, err)
	}

	ds := singleStore.Current().Result.Dataset
	var paths []string
	for _, cc := range singleStore.Current().World.Countries {
		paths = append(paths, "/v1/country/"+cc, "/v1/country/"+cc+"?gen=0")
	}
	for _, a := range ds.AllASNs()[:10] {
		paths = append(paths, fmt.Sprintf("/v1/asn/%d", a))
	}
	for _, path := range paths {
		want := httptest.NewRecorder()
		single.ServeHTTP(want, httptest.NewRequest(http.MethodGet, path, nil))
		got := tf.get(path)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: fleet (%d) %s\nvs single (%d) %s", path, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// --- small test helpers ----------------------------------------------------

func decodeJSON(t testing.TB, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := serve.JSONBody(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func urlQueryEscape(s string) string { return url.QueryEscape(s) }
