package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"stateowned/internal/churn"
	"stateowned/internal/expand"
	"stateowned/internal/runner"
	"stateowned/internal/world"
)

// Options configures a Server.
type Options struct {
	// Health is the pipeline run's degradation report when the server is
	// built over a single static index (New); /readyz summarizes it.
	// Nil means "no health information" and /readyz always reports
	// ready. Generational sources (NewDynamic) carry health per View
	// and ignore this field.
	Health *runner.Health
	// CacheSize bounds the LRU response cache in entries (<= 0 disables
	// caching).
	CacheSize int
	// Clock drives latency accounting (nil = WallClock).
	Clock Clock
	// SearchLimit caps /v1/search results (<= 0 = 10).
	SearchLimit int

	// Admission enables load shedding on the /v1 endpoints: a bounded
	// in-flight limiter with a short deadline-aware wait queue; excess
	// load gets 503 + Retry-After instead of collapsing the process.
	// Nil disables admission control (every request is admitted). The
	// operational endpoints (/healthz, /readyz, /metrics) are never
	// limited — they must answer precisely when the server is drowning.
	Admission *AdmissionConfig
	// RequestTimeout is the per-request handler budget on the /v1
	// endpoints (0 = no deadlines). The expensive endpoints — /v1/diff
	// (a full churn audit) and /v1/search (token-set scoring) — run at
	// half budget: under pressure the costly work is the first to be
	// cut. An exceeded budget cancels the handler's context
	// (partial-work cancellation) and answers 504.
	RequestTimeout time.Duration
	// After is the timer the admission queue and request deadlines wait
	// on (nil = time.After). Tests inject a hand-fired channel so
	// overload runs are deterministic and near-instant.
	After After

	// DrainTimeout bounds the graceful drain in Serve: on shutdown the
	// listener closes immediately and in-flight requests get this long
	// to finish (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration
	// ReadHeaderTimeout, WriteTimeout and IdleTimeout are applied to the
	// http.Server in Serve (0 selects the package defaults); unset
	// they'd let one slowloris client pin a connection forever.
	ReadHeaderTimeout time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
}

// Connection-lifecycle defaults for Serve's http.Server. These bound
// the damage one misbehaving client can do to a connection: a client
// that trickles header bytes (slowloris) is cut off at
// DefaultReadHeaderTimeout, a stalled reader at DefaultWriteTimeout,
// an idle keep-alive at DefaultIdleTimeout.
const (
	// DefaultRequestTimeout is cmd/serve's default per-request handler
	// budget (the Options.RequestTimeout zero value still means "no
	// deadlines" for library users constructing a Server directly).
	DefaultRequestTimeout = 2 * time.Second
	// DefaultDrainTimeout bounds the graceful in-flight drain on
	// shutdown.
	DefaultDrainTimeout = 5 * time.Second
	// DefaultReadHeaderTimeout bounds how long a client may take to
	// send the request headers.
	DefaultReadHeaderTimeout = 10 * time.Second
	// DefaultWriteTimeout bounds the whole request+response exchange;
	// it comfortably exceeds any queue wait plus handler budget.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultIdleTimeout bounds idle keep-alive connections.
	DefaultIdleTimeout = 120 * time.Second
)

// GenerationHeader is the response header naming the generation a /v1
// answer was served from. The hot-reload soak test keys its
// consistency check on it: a response's body must match a pinned
// ?gen=<header> replay byte for byte.
const GenerationHeader = "X-Generation"

// Server serves a generational dataset Source over HTTP. All state
// reached by handlers is either immutable once published (Views and
// their Indexes) or internally synchronized (source, cache, metrics,
// limiter), so the server is safe under arbitrary request concurrency —
// including concurrent generation swaps: a request resolves its View
// once and answers entirely from it. Every route runs on the embedded
// Spine (admission, deadline, panic barrier, single writer).
type Server struct {
	*Spine
	src   Source
	cache *Cache
	limit int

	drainTimeout      time.Duration
	readHeaderTimeout time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
}

// New assembles a Server over a single compiled Index: a static,
// generation-0-only source with no churn schedule. Use NewDynamic for
// a hot-reloading generational source (internal/snapshot).
func New(idx *Index, opts Options) *Server {
	return NewDynamic(&staticSource{view: View{
		Index:      idx,
		Health:     opts.Health,
		Provenance: Provenance{Origin: "static"},
	}}, opts)
}

// NewDynamic assembles a Server over a generational Source. The server
// itself holds no dataset state: every request resolves a View (the
// live generation, or a retained one pinned with ?gen=N) and answers
// from its immutable index.
func NewDynamic(src Source, opts Options) *Server {
	s := &Server{
		Spine:             NewSpine(opts.Clock, opts.Admission, opts.RequestTimeout, opts.After),
		src:               src,
		cache:             NewCache(opts.CacheSize),
		limit:             opts.SearchLimit,
		drainTimeout:      opts.DrainTimeout,
		readHeaderTimeout: opts.ReadHeaderTimeout,
		writeTimeout:      opts.WriteTimeout,
		idleTimeout:       opts.IdleTimeout,
	}
	if s.limit <= 0 {
		s.limit = 10
	}
	for route, fn := range map[*Route]func(*View, *Request) Response{
		ASNRoute:       s.handleASN,
		CountryRoute:   s.handleCountry,
		OrgRoute:       s.handleOrg,
		SearchRoute:    s.handleSearch,
		DatasetRoute:   s.handleDataset,
		NeighborsRoute: s.handleGraphNeighbors,
		UpstreamsRoute: s.handleGraphUpstreams,
		ConeRoute:      s.handleGraphCone,
		PathRoute:      s.handleGraphPath,
		HijacksRoute:   s.handleHijacks,
	} {
		s.Handle(route, s.viewHandler(route, fn))
	}
	s.Handle(DiffRoute, s.handleDiff)
	s.Handle(ReadyzRoute, s.handleReadyz)
	s.Handle(MetricsRoute, s.handleMetrics)
	return s
}

// CacheStats exposes the response-cache accounting.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// InvalidateGeneration purges every cached response that was answered
// from the given generation. The snapshot store calls this when a
// generation leaves the retention ring: entries of still-retained
// generations remain valid (responses are pure functions of
// (generation, typed request)), so only evicted generations need
// purging — and a stale answer cannot survive a swap in any case,
// because unpinned requests resolve their generation before the cache
// is consulted.
func (s *Server) InvalidateGeneration(gen int) { s.cache.PurgeGeneration(gen) }

// Serve accepts connections on ln until ctx is canceled, then shuts the
// server down gracefully: the listener stops accepting immediately and
// in-flight requests get the drain timeout to finish. It returns nil on
// a clean context-driven shutdown (including one where the drain
// deadline expired and stragglers were cut off — that is the contract,
// not an error). The http.Server runs with read-header, write and idle
// timeouts so a slowloris client cannot pin a connection forever.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return ServeHandler(ctx, ln, s, LifecycleOptions{
		DrainTimeout:      s.drainTimeout,
		ReadHeaderTimeout: s.readHeaderTimeout,
		WriteTimeout:      s.writeTimeout,
		IdleTimeout:       s.idleTimeout,
	})
}

// LifecycleOptions bound an http.Server's connection lifecycle for
// ServeHandler; zero fields select the package defaults.
type LifecycleOptions struct {
	DrainTimeout      time.Duration
	ReadHeaderTimeout time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
}

// ServeHandler runs any handler with this package's hardened server
// lifecycle — slowloris-bounded connections, context-driven graceful
// drain, force-close of stragglers past the drain budget. The fleet's
// shard and router servers ride the same lifecycle as the
// single-process server.
func ServeHandler(ctx context.Context, ln net.Listener, h http.Handler, opts LifecycleOptions) error {
	drain := orDefault(opts.DrainTimeout, DefaultDrainTimeout)
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: orDefault(opts.ReadHeaderTimeout, DefaultReadHeaderTimeout),
		WriteTimeout:      orDefault(opts.WriteTimeout, DefaultWriteTimeout),
		IdleTimeout:       orDefault(opts.IdleTimeout, DefaultIdleTimeout),
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		// The drain deadline expired: force-close the stragglers. Still
		// a clean shutdown from the operator's point of view.
		hs.Close()
	}
	<-errc // always http.ErrServerClosed after Shutdown/Close
	return nil
}

// orDefault substitutes def for an unset duration.
func orDefault(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// resolve resolves the generation a request addresses: the live
// generation for gen < 0, else the retained generation gen. On failure
// the returned view is nil and the response distinguishes a generation
// never built (404) from one evicted from the retention ring (410).
func (s *Server) resolve(gen int) (*View, Response) {
	if gen < 0 {
		return s.src.Current(), Response{}
	}
	v, st := s.src.Generation(gen)
	switch st {
	case GenOK:
		return v, Response{}
	case GenEvicted:
		return nil, ErrorResponse(http.StatusGone,
			fmt.Sprintf("generation %d has been evicted from the retention ring", gen))
	default:
		return nil, ErrorResponse(http.StatusNotFound, fmt.Sprintf("unknown generation %d", gen))
	}
}

// viewHandler wraps a /v1 handler with parsing, generation resolution
// and the LRU response cache. Every /v1 response is a pure function of
// the (generation, typed request) pair — each generation's Index is
// immutable — so hits and misses alike are cacheable, including
// deterministic errors like a 400 for a malformed ASN. The key is the
// request's canonical encoding (a malformed request's raw target)
// under its generation, so a swap can never replay a stale
// generation's answer, and the generation tags the entry so eviction
// can purge it. Responses produced after the request's context was
// canceled (a deadline 504, or partial work cut off mid-handler) are
// never cached: they are functions of timing, not of the request.
func (s *Server) viewHandler(route *Route, fn func(*View, *Request) Response) func(*http.Request) Response {
	return func(r *http.Request) Response {
		q, errResp := route.Parse(r)
		if q == nil {
			return errResp
		}
		view, errResp := s.resolve(q.Gen)
		if view == nil {
			return errResp
		}
		gen := strconv.Itoa(view.Gen)
		key := q.cacheKey(view.Gen)
		if hit, ok := s.cache.Get(key); ok {
			return Response{Status: hit.Status, Body: hit.Body, Gen: gen}
		}
		resp := fn(view, q)
		if r.Context().Err() == nil {
			s.cache.Put(key, view.Gen, CachedResponse{Status: resp.Status, ContentType: "application/json", Body: resp.Body})
		}
		resp.Gen = gen
		return resp
	}
}

// --- /v1 handlers ----------------------------------------------------------

// ASNResponse answers "is this ASN state-owned, by whom, on what
// evidence".
type ASNResponse struct {
	ASN world.ASN `json:"asn"`
	// Status is "state-owned", "minority" or "none".
	Status       string                  `json:"status"`
	Organization *expand.OrgRecord       `json:"organization,omitempty"`
	SiblingASNs  []world.ASN             `json:"sibling_asns,omitempty"`
	Minority     []expand.MinorityRecord `json:"minority,omitempty"`
}

func (s *Server) handleASN(v *View, q *Request) Response {
	if q.bad != nil {
		return *q.bad
	}
	a := q.ASN
	org, minority, owned := v.Index.ASN(a)
	body := ASNResponse{ASN: a, Status: "none", Minority: minority}
	status := http.StatusNotFound
	switch {
	case owned:
		body.Status = "state-owned"
		body.Organization = org.Record
		body.SiblingASNs = org.ASNs
		status = http.StatusOK
	case len(minority) > 0:
		body.Status = "minority"
		status = http.StatusOK
	}
	return JSONResponse(status, body)
}

// OrgResponse is one organization with its ASNs. The membership list
// renders through ASNList — the same canonical sorted-ASN form the
// graph cone endpoint uses — so the record plane and the graph plane
// cannot drift.
type OrgResponse struct {
	Organization *expand.OrgRecord `json:"organization"`
	ASNs         ASNList           `json:"asn"`
}

func (s *Server) handleOrg(v *View, q *Request) Response {
	org, ok := v.Index.Org(q.ID)
	if !ok {
		return ErrorResponse(http.StatusNotFound, fmt.Sprintf("unknown organization %q", q.ID))
	}
	return JSONResponse(http.StatusOK, OrgResponse{Organization: org.Record, ASNs: ASNList(org.ASNs)})
}

// CountryResponse lists a country's state-owned operators, including
// minority holdings.
type CountryResponse struct {
	CC            string                  `json:"cc"`
	Organizations []OrgResponse           `json:"organizations"`
	Minority      []expand.MinorityRecord `json:"minority,omitempty"`
}

func (s *Server) handleCountry(v *View, q *Request) Response {
	if q.bad != nil {
		return *q.bad
	}
	orgs, minority := v.Index.Country(q.CC)
	body := CountryResponse{CC: q.CC, Organizations: []OrgResponse{}, Minority: minority}
	for _, o := range orgs {
		body.Organizations = append(body.Organizations, OrgResponse{Organization: o.Record, ASNs: ASNList(o.ASNs)})
	}
	return JSONResponse(http.StatusOK, body)
}

// SearchResponse is the fuzzy-name search result list. Query echoes the
// normalized form the results were computed from. Fallback reports that
// no organization shared a token with the query and the hits came from
// the full-scan fallback at its higher score floor — the fleet router
// needs the flag to merge shard results with single-process semantics
// (a shard with no token matches must not contribute fallback hits when
// another shard had real token candidates).
type SearchResponse struct {
	Query    string            `json:"query"`
	Hits     []SearchHitRecord `json:"hits"`
	Fallback bool              `json:"fallback,omitempty"`
}

// SearchHitRecord is one scored search hit.
type SearchHitRecord struct {
	Score        float64           `json:"score"`
	Organization *expand.OrgRecord `json:"organization"`
	ASNs         []world.ASN       `json:"asn"`
}

func (s *Server) handleSearch(v *View, q *Request) Response {
	if q.bad != nil {
		return *q.bad
	}
	hits, fallback := v.Index.SearchPartition(q.Name, q.SearchLimit(s.limit))
	body := SearchResponse{Query: q.Name, Hits: []SearchHitRecord{}, Fallback: fallback}
	for _, h := range hits {
		body.Hits = append(body.Hits, SearchHitRecord{
			Score: h.Score, Organization: h.Org.Record, ASNs: h.Org.ASNs,
		})
	}
	return JSONResponse(http.StatusOK, body)
}

// DatasetResponse wraps the Listing-1 export with the generation it
// came from and the build's provenance.
type DatasetResponse struct {
	Generation int             `json:"generation"`
	Provenance Provenance      `json:"provenance"`
	Dataset    json.RawMessage `json:"dataset"`
}

func (s *Server) handleDataset(v *View, _ *Request) Response {
	var buf bytes.Buffer
	if err := v.Index.Dataset().Export(&buf); err != nil {
		return ErrorResponse(http.StatusInternalServerError, "exporting dataset")
	}
	return JSONResponse(http.StatusOK, DatasetResponse{
		Generation: v.Gen, Provenance: v.Provenance, Dataset: buf.Bytes(),
	})
}

// DiffResponse is the ownership-churn audit between two retained
// generations: Audit is exactly churn.RunAudit of `from`'s published
// dataset against `to`'s ground-truth world — what a maintainer of the
// paper's dataset would have to edit to bring the old list up to date.
type DiffResponse struct {
	From  int         `json:"from"`
	To    int         `json:"to"`
	Audit churn.Audit `json:"audit"`
}

func (s *Server) handleDiff(r *http.Request) Response {
	q, _ := DiffRoute.Parse(r) // /v1/diff pins no generation: never nil
	if q.FromGen < 0 {
		return *q.bad
	}
	from, errResp := s.resolve(q.FromGen)
	if from == nil {
		return errResp
	}
	if q.ToGen < 0 {
		return *q.bad
	}
	to, errResp := s.resolve(q.ToGen)
	if to == nil {
		return errResp
	}
	// The audit is the expensive part; if the deadline middleware already
	// canceled this request, skip it — the answer would be discarded.
	if r.Context().Err() != nil {
		return ErrorResponse(http.StatusGatewayTimeout, "request canceled before the audit ran")
	}
	audit, ok := s.src.Diff(from, to)
	if !ok {
		return ErrorResponse(http.StatusNotFound, "diff unavailable: this server's source keeps no ground truth")
	}
	return JSONResponse(http.StatusOK, DiffResponse{From: from.Gen, To: to.Gen, Audit: *audit})
}

// --- health and metrics ----------------------------------------------------

// SourceStatus is one pipeline source's row of the readiness report.
type SourceStatus struct {
	Name        string `json:"name"`
	Status      string `json:"status"`
	Dropped     int    `json:"dropped,omitempty"`
	Corrupted   int    `json:"corrupted,omitempty"`
	Quarantined int    `json:"quarantined,omitempty"`
	Retries     int    `json:"retries,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

// StageStatus is one degraded pipeline stage.
type StageStatus struct {
	Name string `json:"name"`
	Note string `json:"note"`
}

// ReadyResponse summarizes the live generation's runner.Health: ready
// means no source went unavailable in the build that produced it
// (degraded-but-present sources still serve, they are just listed).
// During a hot reload the old generation keeps serving, so readiness
// stays green — Reloading only reports that a rebuild is in flight.
// Degraded (with DegradedReason) means the validation gate quarantined
// the newest rebuild(s) and the server is answering from its
// last-known-good generation: still ready (200), but the dataset has
// stopped advancing and an operator should look.
type ReadyResponse struct {
	Ready      bool `json:"ready"`
	Generation int  `json:"generation"`
	Reloading  bool `json:"reloading"`
	// Degraded state of the reload gate (see ReloadStatus).
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	ReloadFailures int    `json:"reload_failures,omitempty"`
	ReloadGaveUp   bool   `json:"reload_gave_up,omitempty"`
	// Incremental-rebuild reuse counters (cumulative over the store's
	// lifetime), present only when the source rebuilds incrementally.
	Incremental  bool   `json:"incremental,omitempty"`
	NodesReused  uint64 `json:"nodes_reused,omitempty"`
	NodesRebuilt uint64 `json:"nodes_rebuilt,omitempty"`
	// Durable-archive state (see ReloadStatus): present only when the
	// source persists generations to the on-disk archive.
	Archive   bool `json:"archive,omitempty"`
	Recovered bool `json:"recovered,omitempty"`
	// RecoveredGen is a pointer so a warm start onto generation 0 — a
	// perfectly good recovered generation — still serializes instead of
	// vanishing behind omitempty's zero-value rule.
	RecoveredGen         *int           `json:"recovered_gen,omitempty"`
	SegmentsVerified     uint64         `json:"segments_verified,omitempty"`
	SegmentsQuarantined  uint64         `json:"segments_quarantined,omitempty"`
	ArchiveWrites        uint64         `json:"archive_writes,omitempty"`
	ArchiveWriteFailures uint64         `json:"archive_write_failures,omitempty"`
	ArchiveLastError     string         `json:"archive_last_error,omitempty"`
	ChaosSeverity        float64        `json:"chaos_severity"`
	Sources              []SourceStatus `json:"sources,omitempty"`
	DegradedSrc          []string       `json:"degraded_sources,omitempty"`
	Unavailable          []string       `json:"unavailable_sources,omitempty"`
	DegradedStages       []StageStatus  `json:"degraded_stages,omitempty"`
}

func (s *Server) handleReadyz(*http.Request) Response {
	v := s.src.Current()
	rs := s.src.ReloadStatus()
	body := ReadyResponse{
		Generation: v.Gen, Reloading: rs.Reloading,
		Degraded: rs.Degraded, DegradedReason: rs.Reason,
		ReloadFailures: rs.ConsecutiveFailures, ReloadGaveUp: rs.GaveUp,
		Incremental: rs.Incremental,
		NodesReused: rs.NodesReused, NodesRebuilt: rs.NodesRebuilt,
		Archive: rs.Archive, Recovered: rs.Recovered,
		SegmentsVerified: rs.SegmentsVerified, SegmentsQuarantined: rs.SegmentsQuarantined,
		ArchiveWrites: rs.ArchiveWrites, ArchiveWriteFailures: rs.ArchiveWriteFailures,
		ArchiveLastError: rs.ArchiveLastError,
	}
	if rs.Recovered {
		rg := rs.RecoveredGen
		body.RecoveredGen = &rg
	}
	if v.Health == nil {
		body.Ready = true
		return JSONResponse(http.StatusOK, body)
	}
	h := v.Health
	body.ChaosSeverity = h.Severity
	body.DegradedSrc = h.DegradedSources()
	body.Unavailable = h.UnavailableSources()
	for _, sh := range h.Sources() {
		body.Sources = append(body.Sources, SourceStatus{
			Name: sh.Name, Status: sh.Status.String(),
			Dropped: sh.Dropped, Corrupted: sh.Corrupted, Quarantined: sh.Quarantined,
			Retries: sh.Retries, LastError: sh.LastError,
		})
	}
	for _, st := range h.DegradedStages() {
		body.DegradedStages = append(body.DegradedStages, StageStatus{Name: st.Name, Note: st.Note})
	}
	body.Ready = h.Ready()
	status := http.StatusOK
	if !body.Ready {
		status = http.StatusServiceUnavailable
	}
	return JSONResponse(status, body)
}

func (s *Server) handleMetrics(*http.Request) Response {
	v := s.src.Current()
	rs := s.src.ReloadStatus()
	snap := s.metrics.Snapshot()
	snap.Cache = s.cache.Stats()
	if s.limiter != nil {
		st := s.limiter.Stats()
		snap.Admission = &st
	}
	snap.Generation = v.Gen
	snap.Reloading = rs.Reloading
	snap.Degraded = rs.Degraded
	snap.DegradedReason = rs.Reason
	snap.Incremental = rs.Incremental
	snap.NodesReused = rs.NodesReused
	snap.NodesRebuilt = rs.NodesRebuilt
	snap.IndexReuses = rs.IndexReuses
	snap.GraphReuses = rs.GraphReuses
	snap.Archive = rs.Archive
	snap.Recovered = rs.Recovered
	if rs.Recovered {
		rg := rs.RecoveredGen
		snap.RecoveredGen = &rg
	}
	snap.SegmentsVerified = rs.SegmentsVerified
	snap.SegmentsQuarantined = rs.SegmentsQuarantined
	snap.ArchiveWrites = rs.ArchiveWrites
	snap.ArchiveWriteFailures = rs.ArchiveWriteFailures
	if h := v.Health; h != nil {
		snap.BuildWorkers = h.Workers
		for _, nt := range h.Timings {
			snap.BuildNodes = append(snap.BuildNodes, BuildNodeTiming{
				Node:   nt.Node,
				WallMS: float64(nt.Wall) / float64(time.Millisecond),
				Reused: nt.Reused,
			})
		}
	}
	return JSONResponse(http.StatusOK, snap)
}
