package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stateowned"
	"stateowned/internal/durable"
	"stateowned/internal/fleet"
	"stateowned/internal/serve"
	"stateowned/internal/snapshot"
)

// serveOptions are the serving defaults cmd/serve applies when no flag
// overrides them: a 1024-entry cache, admission control at 256 in
// flight with a 100 ms queue wait, and the default request and drain
// budgets.
func serveOptions() serve.Options {
	return serve.Options{
		CacheSize:      1024,
		Admission:      &serve.AdmissionConfig{MaxInFlight: serve.DefaultMaxInFlight, QueueWait: serve.DefaultQueueWait},
		RequestTimeout: serve.DefaultRequestTimeout,
		DrainTimeout:   serve.DefaultDrainTimeout,
	}
}

// storeOptions mirror cmd/serve's store construction with its default
// flags (retention ring, validation gate), over the benchmark's world.
func (r *run) storeOptions(archive *durable.Archive, incremental bool) snapshot.Options {
	return snapshot.Options{
		Base:        stateowned.Config{Seed: worldSeed, Scale: worldScale},
		ChurnSeed:   r.churnSeed(),
		Retain:      snapshot.DefaultRetain,
		Incremental: incremental,
		Archive:     archive,
		Validation: &snapshot.Validation{
			MaxChurnFraction: snapshot.DefaultMaxChurnFraction,
		},
	}
}

// openArchive opens a durable archive in dir, through the timing
// filesystem wrapper when the run is traced.
func (r *run) openArchive(dir string) (*durable.Archive, error) {
	opts := durable.Options{Dir: dir}
	if r.fs != nil {
		opts.FS = timedFS{FS: durable.OSFS{}, log: r.fs}
	}
	return durable.Open(opts)
}

// server is one listening HTTP server on a loopback port.
type server struct {
	base   string
	cancel context.CancelFunc
	done   chan error
}

// listen serves h on 127.0.0.1 with the serve package's hardened
// lifecycle (the one serve.Server.Serve and the fleet servers use).
func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{base: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() {
		s.done <- serve.ServeHandler(ctx, ln, h, serve.LifecycleOptions{DrainTimeout: serve.DefaultDrainTimeout})
	}()
	return s, nil
}

// stop shuts the server down and waits until it has.
func (s *server) stop() error {
	if s == nil {
		return nil
	}
	s.cancel()
	return <-s.done
}

// waitReady polls url until it answers 200.
func waitReady(client *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %w", url, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// single is the one-process stack cmd/serve runs with -data-dir: an
// archive, a snapshot store over it, and a serve.Server on a socket.
type single struct {
	dir   string
	store *snapshot.Store
	srv   *serve.Server
	http  *server
}

// startSingle builds the one-process stack in a fresh archive
// directory and returns once /readyz answers over the socket.
func (r *run) startSingle(name string, incremental bool) (*single, error) {
	dir, err := os.MkdirTemp(r.work, name+"-")
	if err != nil {
		return nil, err
	}
	a, err := r.openArchive(dir)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	store := snapshot.New(r.storeOptions(a, incremental))
	r.observeBuild("snapshot.New", t0, time.Now(), store.Current(), math.NaN())
	srv := serve.NewDynamic(store.Source(), serveOptions())
	store.OnEvict(srv.InvalidateGeneration)
	var h http.Handler = srv
	if r.tr != nil {
		h = tracedHandler(srv, r.tr, "serve", "serve.Server.ServeHTTP")
	}
	hs, err := listen(h)
	if err != nil {
		return nil, err
	}
	st := &single{dir: dir, store: store, srv: srv, http: hs}
	if err := waitReady(r.client, hs.base+"/readyz"); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

func (s *single) stop() error { return s.http.stop() }

// fleetStack is the 2-shard fleet cmd/serve runs as -mode shard and
// -mode router: per-shard stores and archives, shard servers, the
// router, and the coordinator that bootstrapped it.
type fleetStack struct {
	shards []*single
	router *fleet.Router
	coord  *fleet.Coordinator
	http   *server
}

const fleetShards = 2

// startFleet builds every shard's store concurrently (as separate shard
// processes would), carves the partition from shard 0's generation 0,
// starts the shard servers and the router on loopback sockets, and
// bootstraps the router's generation pin. It returns once the router's
// /readyz answers.
func (r *run) startFleet() (*fleetStack, error) {
	fs := &fleetStack{shards: make([]*single, fleetShards)}
	errs := make([]error, fleetShards)
	var wg sync.WaitGroup
	for i := range fs.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dir, err := os.MkdirTemp(r.work, fmt.Sprintf("shard%d-", i))
			if err == nil {
				var a *durable.Archive
				if a, err = r.openArchive(dir); err == nil {
					fs.shards[i] = &single{dir: dir, store: snapshot.New(r.storeOptions(a, false))}
				}
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	part, err := fleet.ComputePartition(fs.shards[0].store.Current().Result.Dataset, fleetShards)
	if err != nil {
		return nil, fmt.Errorf("computing partition: %w", err)
	}
	// The router reaches the shards through its own client, as cmd/serve's
	// router does; traced runs time each leg on it.
	var legs http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if r.tr != nil {
		legs = tracedTransport{base: legs, tr: r.tr, layer: "net", name: "net.shard leg"}
	}
	legClient := &http.Client{Transport: legs}
	clients := make([]fleet.ShardClient, fleetShards)
	for i, sh := range fs.shards {
		ss := fleet.NewShardServer(sh.store, part, i, serveOptions())
		var h http.Handler = ss
		if r.tr != nil {
			h = tracedHandler(ss, r.tr, "serve", "fleet.ShardServer.ServeHTTP")
		}
		if sh.http, err = listen(h); err != nil {
			fs.stop()
			return nil, err
		}
		clients[i] = fleet.ShardClient{Index: i, Base: sh.http.base, HTTP: legClient}
	}
	fs.router, err = fleet.NewRouter(fleet.RouterOptions{
		Partition:      part,
		Shards:         clients,
		Admission:      serveOptions().Admission,
		RequestTimeout: serve.DefaultRequestTimeout,
		Lifecycle:      serve.LifecycleOptions{DrainTimeout: serve.DefaultDrainTimeout},
	})
	if err != nil {
		fs.stop()
		return nil, fmt.Errorf("building router: %w", err)
	}
	fs.coord = fleet.NewCoordinator(fs.router, clients, fleet.CoordinatorOptions{ControlTimeout: 5 * time.Minute})
	if _, err := fs.coord.Bootstrap(context.Background()); err != nil {
		fs.stop()
		return nil, err
	}
	var h http.Handler = fs.router
	if r.tr != nil {
		h = tracedHandler(fs.router, r.tr, "fleet", "fleet.Router.ServeHTTP")
	}
	if fs.http, err = listen(h); err != nil {
		fs.stop()
		return nil, err
	}
	if err := waitReady(r.client, fs.http.base+"/readyz"); err != nil {
		fs.stop()
		return nil, err
	}
	return fs, nil
}

func (fs *fleetStack) stop() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	keep(fs.http.stop())
	for _, sh := range fs.shards {
		if sh != nil {
			keep(sh.stop())
		}
	}
	return first
}

// removeAll deletes a directory the run created under its work dir.
func removeAll(dir string) {
	if dir != "" && filepath.IsLocal(dir) {
		os.RemoveAll(dir)
	}
}
