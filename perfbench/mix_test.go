package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"stateowned/internal/world"
)

// testKeys is a synthetic key space, so the mix tests need no world.
func testKeys() keySpace {
	var ks keySpace
	for i := 0; i < 3000; i++ {
		ks.worldASNs = append(ks.worldASNs, world.ASN(50001+i))
		if i%5 == 0 {
			ks.ownedASNs = append(ks.ownedASNs, world.ASN(50001+i))
		}
	}
	for i := 0; i < 40; i++ {
		ks.countries = append(ks.countries, fmt.Sprintf("%c%c", 'A'+i/26, 'A'+i%26))
	}
	for i := 0; i < 300; i++ {
		ks.orgNames = append(ks.orgNames, fmt.Sprintf("Telecom %d & Sons", i))
		ks.orgIDs = append(ks.orgIDs, fmt.Sprintf("ORG-%d", i))
	}
	return ks
}

func TestSequenceIsSeeded(t *testing.T) {
	ks := testKeys()
	a, b := sequence(42, ks, 5000), sequence(42, ks, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	c := sequence(43, ks, 5000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Errorf("seeds 42 and 43 agree on %d of %d requests", same, len(a))
	}
	if !reflect.DeepEqual(hotSequence(7, ks, 64, 2000), hotSequence(7, ks, 64, 2000)) {
		t.Error("the same seed gave different hot sequences")
	}
	if reflect.DeepEqual(hotSequence(7, ks, 64, 2000), hotSequence(8, ks, 64, 2000)) {
		t.Error("different seeds gave the same hot sequence")
	}
}

func TestSequenceMixProportions(t *testing.T) {
	const n = 200000
	counts := make([]int, numEndpoints)
	ownedASN := 0
	owned := map[string]bool{}
	ks := testKeys()
	for _, a := range ks.ownedASNs {
		owned[fmt.Sprintf("/v1/asn/%d", a)] = true
	}
	for _, r := range sequence(1, ks, n) {
		counts[r.ep]++
		if r.ep == epASN && owned[r.path] {
			ownedASN++
		}
	}
	want := map[int]float64{epASN: 0.50, epCountry: 0.15, epSearch: 0.15, epGraphCone: 0.15, epOrg: 0.025, epGraphPath: 0.025}
	for ep, share := range want {
		if got := float64(counts[ep]) / n; got < share*0.95 || got > share*1.05 {
			t.Errorf("%s share %.4f, want %.3f", endpointNames[ep], got, share)
		}
	}
	// Half the ASN lookups name state-owned ASNs, plus the owned fifth
	// of the arbitrary half.
	if got := float64(ownedASN) / float64(counts[epASN]); got < 0.57 || got > 0.63 {
		t.Errorf("state-owned share of ASN lookups %.3f, want about 0.6", got)
	}
}

func TestHotSequenceStaysInItsSet(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range hotSequence(3, testKeys(), 256, 50000) {
		seen[r.path] = true
		if !strings.HasPrefix(r.path, "/v1/") {
			t.Fatalf("bad path %q", r.path)
		}
	}
	if len(seen) > 256 || len(seen) < 250 {
		t.Errorf("hot sequence used %d distinct requests, want at most 256 and nearly all", len(seen))
	}
}
