package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// viewRoutes are the cached /v1 routes.
var viewRoutes = []*Route{
	ASNRoute, CountryRoute, OrgRoute, SearchRoute, DatasetRoute,
	NeighborsRoute, UpstreamsRoute, ConeRoute, PathRoute, HijacksRoute,
}

// uncachedTwin serves s's source with the cache off.
func uncachedTwin(s *Server) *Server { return NewDynamic(s.src, Options{}) }

// TestCachedMatchesUncachedAcrossKeyCollisions is the regression test
// for cache keys that collapsed distinct error bodies: each pair's
// second request used to share the first one's key and replay its
// error, which quotes the first request's spelling. Served after the
// first, the second answer must equal an uncached server's.
func TestCachedMatchesUncachedAcrossKeyCollisions(t *testing.T) {
	gsrv, asn := graphServer()
	hsrv := hijacksServer()
	for _, tc := range []struct {
		srv           *Server
		first, second string
	}{
		{gsrv, "/v1/asn/0", "/v1/asn/00"},
		{gsrv, "/v1/country/usa", "/v1/country/USA"},
		{gsrv, fmt.Sprintf("/v1/graph/neighbors/%d?class=FOO", asn), fmt.Sprintf("/v1/graph/neighbors/%d?class=foo", asn)},
		{gsrv, "/v1/graph/cone/0", "/v1/graph/cone/000"},
		{gsrv, "/v1/graph/path?from=0&to=1", "/v1/graph/path?from=00&to=1"},
		{hsrv, "/v1/hijacks?cc=xyz", "/v1/hijacks?cc=XYZ"},
		{hsrv, "/v1/hijacks?victim=0", "/v1/hijacks?victim=00"},
	} {
		getJSON(t, tc.srv, tc.first, nil)
		got := getJSON(t, tc.srv, tc.second, nil)
		want := getJSON(t, uncachedTwin(tc.srv), tc.second, nil)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("GET %s after %s: cached (%d) %s\nuncached (%d) %s",
				tc.second, tc.first, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// requestKey routes target through the route table and returns its
// cache key on s, or false when the request is never cached (a
// malformed or unresolvable ?gen=, a path the mux redirects). canon is
// the canonical target of a well-formed request ("" otherwise).
func requestKey(s *Server, target string) (key, canon string, ok bool) {
	mux := http.NewServeMux()
	for _, rt := range viewRoutes {
		mux.HandleFunc(rt.Pattern, func(_ http.ResponseWriter, r *http.Request) {
			q, _ := rt.Parse(r)
			if q == nil {
				return
			}
			if v, _ := s.resolve(q.Gen); v != nil {
				key, ok = q.cacheKey(v.Gen), true
				if !q.Malformed() {
					canon = q.Target(q.Gen)
				}
			}
		})
	}
	mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil))
	return key, canon, ok
}

// fuzzTarget spells one request to endpoint ep from its parameter
// strings (c is /v1/hijacks' cross_border); an empty gen leaves the
// request unpinned.
func fuzzTarget(ep uint8, a, b, c, gen string) string {
	p, qe := url.PathEscape, url.QueryEscape
	var t string
	switch ep % 10 {
	case 0:
		t = "/v1/asn/" + p(a) + "?"
	case 1:
		t = "/v1/country/" + p(a) + "?"
	case 2:
		t = "/v1/org/" + p(a) + "?"
	case 3:
		t = "/v1/search?name=" + qe(a) + "&limit=" + qe(b) + "&"
	case 4:
		t = "/v1/dataset?"
	case 5:
		t = "/v1/graph/neighbors/" + p(a) + "?class=" + qe(b) + "&"
	case 6:
		t = "/v1/graph/upstreams/" + p(a) + "?"
	case 7:
		t = "/v1/graph/cone/" + p(a) + "?"
	case 8:
		t = "/v1/graph/path?from=" + qe(a) + "&to=" + qe(b) + "&"
	default:
		t = "/v1/hijacks?victim=" + qe(a) + "&cc=" + qe(b) + "&cross_border=" + qe(c) + "&"
	}
	if gen != "" {
		t += "gen=" + qe(gen)
	}
	return t
}

// FuzzRequestKey is the cache-key soundness proof: for two spellings of
// one endpoint's parameters, equal cache keys imply byte-equal uncached
// responses (status, body and X-Generation). A well-formed request's
// canonical target must also parse back to the same key — the fleet
// router sends exactly that target to its shards.
func FuzzRequestKey(f *testing.F) {
	type spelling struct{ a, b, c, gen string }
	for _, s := range []struct {
		ep     uint8
		s1, s2 spelling
	}{
		{0, spelling{"7", "", "", ""}, spelling{"007", "", "", "3"}},
		{0, spelling{"0", "", "", ""}, spelling{"00", "", "", ""}},
		{1, spelling{"sg", "", "", ""}, spelling{" SG ", "", "", "03"}},
		{1, spelling{"usa", "", "", ""}, spelling{"USA", "", "", ""}},
		{2, spelling{"ORG-0001", "", "", ""}, spelling{"ORG-0001", "", "", "2"}},
		{3, spelling{"Telecom Ltd.", "3", "", ""}, spelling{"TELECOM", "03", "", ""}},
		{3, spelling{"", "3", "", ""}, spelling{" ", "3", "", ""}},
		{4, spelling{"", "", "", "2"}, spelling{"", "", "", "+2"}},
		{5, spelling{"100", "PEER", "", ""}, spelling{"0100", "peer", "", ""}},
		{5, spelling{"100", "FOO", "", ""}, spelling{"100", "foo", "", ""}},
		{6, spelling{"100", "", "", ""}, spelling{"00100", "", "", ""}},
		{7, spelling{"0", "", "", ""}, spelling{"000", "", "", ""}},
		{8, spelling{"0", "1", "", ""}, spelling{"00", "1", "", ""}},
		{9, spelling{"100", "cn", "true", ""}, spelling{"0100", "CN", "T", ""}},
		{9, spelling{"0", "xyz", "", ""}, spelling{"00", "XYZ", "", ""}},
	} {
		f.Add(s.ep, s.s1.a, s.s1.b, s.s1.c, s.s1.gen, s.s2.a, s.s2.b, s.s2.c, s.s2.gen)
	}
	gsrv, _ := graphServer()
	views := gsrv.src.(*fakeSource).views
	hviews := hijacksServer().src.(*fakeSource).views
	src := &fakeSource{views: map[int]*View{}, current: 3, oldest: 2}
	for gen, v := range views {
		both := *v
		both.Hijacks = hviews[gen].Hijacks
		src.views[gen] = &both
	}
	srv := NewDynamic(src, Options{})
	f.Fuzz(func(t *testing.T, ep uint8, a1, b1, c1, gen1, a2, b2, c2, gen2 string) {
		t1, t2 := fuzzTarget(ep, a1, b1, c1, gen1), fuzzTarget(ep, a2, b2, c2, gen2)
		for _, target := range []string{t1, t2} {
			if _, err := url.ParseRequestURI(target); err != nil {
				return
			}
		}
		k1, canon, ok1 := requestKey(srv, t1)
		k2, _, ok2 := requestKey(srv, t2)
		if canon != "" {
			if k, _, _ := requestKey(srv, canon); k != k1 {
				t.Fatalf("canonical target %q of %q keys %q, want %q", canon, t1, k, k1)
			}
		}
		if !ok1 || !ok2 || k1 != k2 {
			return
		}
		w1, w2 := getJSON(t, srv, t1, nil), getJSON(t, srv, t2, nil)
		if w1.Code != w2.Code || !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) ||
			w1.Header().Get(GenerationHeader) != w2.Header().Get(GenerationHeader) {
			t.Fatalf("key %q shared by %q (%d) %s\nand %q (%d) %s", k1, t1, w1.Code, w1.Body, t2, w2.Code, w2.Body)
		}
	})
}
