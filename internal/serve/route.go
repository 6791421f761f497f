package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"stateowned/internal/graph"
	"stateowned/internal/nameutil"
	"stateowned/internal/world"
)

// Budget is a route's load class on the Spine.
type Budget int

const (
	// Ops routes (/healthz, /readyz, /metrics) are never admission
	// controlled and run without a deadline: they must answer precisely
	// when the data plane is shedding.
	Ops Budget = iota
	// FullBudget routes are admission controlled and run at the full
	// request timeout.
	FullBudget
	// HalfBudget routes are the expensive ones (token-set scoring, churn
	// audits, path search): admission controlled at half the request
	// timeout, so under pressure the costly work is cut first.
	HalfBudget
)

// Route is one entry of the serving surface: its ServeMux pattern, the
// endpoint name its metrics are recorded under, its load class, and the
// parser that turns a matching *http.Request into a typed Request. The
// single-process server, the fleet shards and the fleet router all
// register their routes from this one table, so a path, a parameter
// spelling or an error message cannot differ between them.
type Route struct {
	Pattern  string
	Endpoint string
	Budget   Budget
	// Pins reports that the route accepts ?gen= to pin a retained
	// generation.
	Pins bool
	// parse fills the route's typed parameters, recording the first
	// malformed one (nil: the route takes no parameters).
	parse func(q *Request, r *http.Request, vals url.Values)
}

// The route table.
var (
	ASNRoute       = &Route{Pattern: "GET /v1/asn/{asn}", Endpoint: "/v1/asn", Budget: FullBudget, Pins: true, parse: parseASNPath}
	CountryRoute   = &Route{Pattern: "GET /v1/country/{cc}", Endpoint: "/v1/country", Budget: FullBudget, Pins: true, parse: parseCountry}
	OrgRoute       = &Route{Pattern: "GET /v1/org/{id}", Endpoint: "/v1/org", Budget: FullBudget, Pins: true, parse: parseOrg}
	SearchRoute    = &Route{Pattern: "GET /v1/search", Endpoint: "/v1/search", Budget: HalfBudget, Pins: true, parse: parseSearch}
	DatasetRoute   = &Route{Pattern: "GET /v1/dataset", Endpoint: "/v1/dataset", Budget: FullBudget, Pins: true}
	NeighborsRoute = &Route{Pattern: "GET /v1/graph/neighbors/{asn}", Endpoint: "/v1/graph/neighbors", Budget: FullBudget, Pins: true, parse: parseNeighbors}
	UpstreamsRoute = &Route{Pattern: "GET /v1/graph/upstreams/{asn}", Endpoint: "/v1/graph/upstreams", Budget: FullBudget, Pins: true, parse: parseASNPath}
	ConeRoute      = &Route{Pattern: "GET /v1/graph/cone/{asn}", Endpoint: "/v1/graph/cone", Budget: FullBudget, Pins: true, parse: parseASNPath}
	PathRoute      = &Route{Pattern: "GET /v1/graph/path", Endpoint: "/v1/graph/path", Budget: HalfBudget, Pins: true, parse: parsePath}
	HijacksRoute   = &Route{Pattern: "GET /v1/hijacks", Endpoint: "/v1/hijacks", Budget: FullBudget, Pins: true, parse: parseHijacks}
	DiffRoute      = &Route{Pattern: "GET /v1/diff", Endpoint: "/v1/diff", Budget: HalfBudget, parse: parseDiff}

	HealthzRoute = &Route{Pattern: "GET /healthz", Endpoint: "/healthz", Budget: Ops}
	ReadyzRoute  = &Route{Pattern: "GET /readyz", Endpoint: "/readyz", Budget: Ops}
	MetricsRoute = &Route{Pattern: "GET /metrics", Endpoint: "/metrics", Budget: Ops}
	// OtherRoute catches every unknown path. NewSpine registers it and
	// HealthzRoute.
	OtherRoute = &Route{Pattern: "/", Endpoint: "other", Budget: FullBudget}
)

// Request is one request parsed once: the generation it pins and its
// typed parameters. Its canonical encoding
// (Target) is both the response-cache key and the path a fleet router
// sends to its shards, so two spellings of one request share a cache
// entry exactly when they are the same request.
type Request struct {
	// Gen is the generation ?gen= pins, or -1 to follow the live one.
	Gen int

	ASN   world.ASN // {asn}; the ?victim= filter on /v1/hijacks
	CC    string    // {cc}; the ?cc= filter on /v1/hijacks (canonical case)
	ID    string    // {id}
	Name  string    // ?name=, normalized
	Limit int       // ?limit= (0: the server's cap)
	// Class is the ?class= filter when ByClass is set.
	Class   graph.Class
	ByClass bool
	// From and To are /v1/graph/path's endpoints.
	From, To world.ASN
	// FromGen and ToGen are /v1/diff's generations (-1: malformed).
	FromGen, ToGen int
	// CrossBorder is /v1/hijacks' ?cross_border= filter (nil: none).
	CrossBorder *bool

	// bad is the first malformed parameter's 400, nil when every
	// parameter parsed. A handler reports it at the point its checks
	// reach that parameter, so view-dependent answers (a missing graph
	// plane, an AS absent from the topology) keep their precedence.
	bad *Response
	// wild and query accumulate the canonical encoding while parsing;
	// target is the finished form — the raw path and query for a
	// malformed request, which the parser cannot canonicalize.
	wild, query, target string
}

// Parse parses r as a request for route. A nil *Request means ?gen=
// itself is malformed; the returned Response is then the 400, which
// outranks every other answer.
func (rt *Route) Parse(r *http.Request) (*Request, Response) {
	q := &Request{Gen: -1}
	vals := r.URL.Query()
	if raw, ok := vals["gen"]; ok && rt.Pins {
		n, err := ParseGen(raw[0], "gen")
		if err != nil {
			return nil, ErrorResponse(http.StatusBadRequest, err.Error())
		}
		q.Gen = n
	}
	if rt.parse != nil {
		rt.parse(q, r, vals)
	}
	if q.bad != nil {
		q.target = r.URL.EscapedPath()
		if r.URL.RawQuery != "" {
			q.target += "?" + r.URL.RawQuery
		}
		return q, Response{}
	}
	q.target = strings.TrimPrefix(rt.Pattern, "GET ")
	if i := strings.IndexByte(q.target, '{'); i >= 0 {
		q.target = q.target[:i] + q.wild
	}
	if q.query != "" {
		q.target += "?" + q.query
	}
	return q, Response{}
}

// Malformed reports whether a parameter failed to parse.
func (q *Request) Malformed() bool { return q.bad != nil }

// Target is the request's canonical path and query with generation gen
// pinned (gen < 0 pins nothing). A malformed request's target is its raw
// path and query, already carrying any pin the client gave.
func (q *Request) Target(gen int) string {
	if gen < 0 || (q.bad != nil && q.Gen >= 0) {
		return q.target
	}
	sep := "?"
	if strings.Contains(q.target, "?") {
		sep = "&"
	}
	return q.target + sep + "gen=" + strconv.Itoa(gen)
}

// cacheKey is the response-cache key under the generation the request
// resolved to. A malformed request is keyed by its raw target, marked
// so it can never share an entry with a well-formed one.
func (q *Request) cacheKey(gen int) string {
	if q.bad != nil {
		return strconv.Itoa(gen) + "\x00raw\x00" + q.target
	}
	return strconv.Itoa(gen) + "\x00" + q.target
}

// SearchLimit is the effective /v1/search result count under a server
// cap: the requested ?limit= when it is tighter, the cap otherwise.
func (q *Request) SearchLimit(limitCap int) int {
	if q.Limit > 0 && q.Limit < limitCap {
		return q.Limit
	}
	return limitCap
}

// ParseGen parses a generation number parameter. The error's text is
// the 400 body every generation parameter answers with.
func ParseGen(raw, param string) (int, error) {
	n, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid ?%s=%q: want a non-negative generation number", param, raw)
	}
	return int(n), nil
}

// fail records a malformed parameter; the first one wins.
func (q *Request) fail(msg string) {
	if q.bad == nil {
		resp := ErrorResponse(http.StatusBadRequest, msg)
		q.bad = &resp
	}
}

// param appends one canonical query parameter.
func (q *Request) param(k, v string) {
	if q.query != "" {
		q.query += "&"
	}
	q.query += k + "=" + url.QueryEscape(v)
}

// asn parses one ASN spelling (leading zeros allowed, 0 and overflow
// rejected).
func (q *Request) asn(raw string) world.ASN {
	n, err := strconv.ParseUint(raw, 10, 32)
	if err != nil || n == 0 {
		q.fail(fmt.Sprintf("invalid ASN %q", raw))
		return 0
	}
	return world.ASN(n)
}

// cc parses one ISO-3166 alpha-2 country code in any case, surrounding
// spaces allowed.
func (q *Request) cc(raw string) string {
	cc := CanonicalCC(raw)
	if len(cc) != 2 || cc[0] < 'A' || cc[0] > 'Z' || cc[1] < 'A' || cc[1] > 'Z' {
		q.fail(fmt.Sprintf("invalid country code %q", raw))
		return ""
	}
	return cc
}

// gen parses one generation parameter (-1: malformed).
func (q *Request) gen(raw, param string) int {
	n, err := ParseGen(raw, param)
	if err != nil {
		q.fail(err.Error())
		return -1
	}
	return n
}

func formatASN(a world.ASN) string { return strconv.FormatUint(uint64(a), 10) }

func parseASNPath(q *Request, r *http.Request, _ url.Values) {
	q.ASN = q.asn(r.PathValue("asn"))
	q.wild = formatASN(q.ASN)
}

func parseCountry(q *Request, r *http.Request, _ url.Values) {
	q.CC = q.cc(r.PathValue("cc"))
	q.wild = q.CC
}

func parseOrg(q *Request, r *http.Request, _ url.Values) {
	q.ID = r.PathValue("id")
	q.wild = url.PathEscape(q.ID)
}

func parseSearch(q *Request, _ *http.Request, vals url.Values) {
	q.Name = nameutil.Normalize(vals.Get("name"))
	if q.Name == "" {
		q.fail("missing or empty ?name= query")
	}
	q.param("name", q.Name)
	if raw := vals.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			q.fail(fmt.Sprintf("invalid ?limit=%s", raw))
			return
		}
		q.Limit = n
		q.param("limit", strconv.Itoa(n))
	}
}

func parseNeighbors(q *Request, r *http.Request, vals url.Values) {
	parseASNPath(q, r, vals)
	if raw := vals.Get("class"); raw != "" {
		c, ok := graph.ParseClass(raw)
		if !ok {
			q.fail(fmt.Sprintf("unknown relationship class %q (want provider, customer, peer or sibling)", raw))
			return
		}
		q.Class, q.ByClass = c, true
		q.param("class", c.String())
	}
}

func parsePath(q *Request, _ *http.Request, vals url.Values) {
	rawFrom, rawTo := vals.Get("from"), vals.Get("to")
	if rawFrom == "" || rawTo == "" {
		q.fail("need both ?from= and ?to= ASNs")
		return
	}
	q.From, q.To = q.asn(rawFrom), q.asn(rawTo)
	q.param("from", formatASN(q.From))
	q.param("to", formatASN(q.To))
}

func parseHijacks(q *Request, _ *http.Request, vals url.Values) {
	if raw := vals.Get("victim"); raw != "" {
		q.ASN = q.asn(raw)
		q.param("victim", formatASN(q.ASN))
	}
	if raw := vals.Get("cc"); raw != "" {
		q.CC = q.cc(raw)
		q.param("cc", q.CC)
	}
	if raw := vals.Get("cross_border"); raw != "" {
		b, err := strconv.ParseBool(raw)
		if err != nil {
			q.fail(fmt.Sprintf("invalid cross_border value %q (want true or false)", raw))
			return
		}
		q.CrossBorder = &b
		q.param("cross_border", strconv.FormatBool(b))
	}
}

// parseDiff parses /v1/diff's generation pair. A malformed ?to= leaves
// FromGen set: the audit's answer resolves ?from= before it reports ?to=.
func parseDiff(q *Request, _ *http.Request, vals url.Values) {
	q.FromGen, q.ToGen = -1, -1
	rawFrom, okFrom := vals["from"]
	rawTo, okTo := vals["to"]
	if !okFrom || !okTo {
		q.fail("need both ?from= and ?to= generation numbers")
		return
	}
	q.FromGen, q.ToGen = q.gen(rawFrom[0], "from"), q.gen(rawTo[0], "to")
	q.param("from", strconv.Itoa(q.FromGen))
	q.param("to", strconv.Itoa(q.ToGen))
}
