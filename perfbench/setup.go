package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"semdisco"
	"semdisco/internal/corpus"
	"semdisco/internal/httpapi"
)

// dim is the engine embedding width: semdisco-serve's default.
const dim = 256

// system is one workload's system under test, served on loopback
// listeners in this process the way semdisco-serve would serve it: default
// telemetry on, a request logger attached.
type system struct {
	cor *corpus.Corpus
	// url is the public httpapi server the load goes to: the engine's own
	// server, or the coordinator's in the netcluster workload.
	url string
	// eng is the engine behind url; nil in the netcluster workload.
	eng *semdisco.Engine
	// nc and shards exist only in the netcluster workload:
	// shards[set][replica] with shardURLs alongside.
	nc        *semdisco.NetCoordinator
	shards    [][]*semdisco.Engine
	shardURLs [][]string
	// servers are stopped by close, in reverse start order.
	servers []func()
}

// config is the engine configuration every workload shares. The IDF comes
// from the generated corpus, not from the engine's own statistics, so a
// churned engine and a fresh build over its surviving relations score
// identically. CTS builds run serially: a parallel build lays out UMAP by
// goroutine interleaving, so every build, and every replica of a set,
// clusters differently, ranks differently and does different work per
// query. A serial build makes the index a function of the seed. ANNS keeps
// the default parallel build, whose HNSW graphs vary much less (recall@10
// moves in the fourth decimal between builds) and which sets up in about a
// third of the serial time.
func config(cor *corpus.Corpus, m semdisco.Method) semdisco.Config {
	cfg := semdisco.Config{Method: m, Dim: dim, Seed: 1, Lexicon: cor.Lexicon, IDF: cor.IDF}
	cfg.CTS.Build.Workers = 1
	return cfg
}

// profile is the generator profile of a workload at a seed: the WikiTables
// shape at the workload's scale, with enough queries per length class for
// a pool of at least 300 distinct texts.
func profile(w *workload, seed int64) corpus.Profile {
	p := corpus.WikiTables().Scaled(w.scale)
	p.Seed = seed
	p.QueriesPerClass = 120
	return p
}

// setUp builds the workload's system from scratch: corpus generation,
// embedding, index builds, listeners, and waits until every server
// answers. rec, when non-nil, wraps every server in a span-recording
// handler.
func setUp(w *workload, seed int64, rec *recorder) (*system, error) {
	s := &system{cor: corpus.Generate(profile(w, seed))}
	var err error
	if w.netcluster {
		err = s.startNetcluster(w, rec)
	} else {
		err = s.startEngine(w, rec)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	urls := []string{s.url}
	for _, set := range s.shardURLs {
		urls = append(urls, set...)
	}
	for _, u := range urls {
		if err := waitHealthy(u); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *system) startEngine(w *workload, rec *recorder) error {
	eng, err := semdisco.Open(s.cor.Federation, config(s.cor, w.method))
	if err != nil {
		return err
	}
	s.eng = eng
	url, stop, err := serve(wrap(httpapi.New(eng, httpapi.WithLogger(discardLogger())), "httpapi.serve", rec))
	if err != nil {
		return err
	}
	s.url = url
	s.servers = append(s.servers, stop)
	return nil
}

// Netcluster shape: sets replica sets of replicas servers each, behind one
// coordinator with a result cache of cacheSize entries. The query pool is
// at least four times the cache size, so the working set does not fit.
const (
	sets      = 2
	replicas  = 2
	cacheSize = 64
)

func (s *system) startNetcluster(w *workload, rec *recorder) error {
	cfg := config(s.cor, w.method)
	s.shards = make([][]*semdisco.Engine, sets)
	s.shardURLs = make([][]string, sets)
	// Every replica builds its own engine, as each replica process of a
	// deployment would; builds run on at most GOMAXPROCS goroutines.
	engines := make([]*semdisco.Engine, sets*replicas)
	errs := make([]error, len(engines))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			engines[i], errs[i] = semdisco.NewNetShard(s.cor.Federation, semdisco.NetShardConfig{
				Config: cfg, Sets: sets, Set: i / replicas,
			})
		}(i)
	}
	wg.Wait()
	for i, e := range engines {
		if errs[i] != nil {
			return fmt.Errorf("building replica %d: %w", i, errs[i])
		}
		set := i / replicas
		url, stop, err := serve(wrap(httpapi.New(e, httpapi.WithLogger(discardLogger())), "replica.serve", rec))
		if err != nil {
			return err
		}
		s.servers = append(s.servers, stop)
		s.shards[set] = append(s.shards[set], e)
		s.shardURLs[set] = append(s.shardURLs[set], url)
	}
	ncfg := semdisco.NetCoordinatorConfig{Config: cfg, CacheSize: cacheSize}
	if rec != nil {
		// Traced runs time every coordinator-to-replica call as a span.
		ncfg.Transport = newWireTransport(rec)
	}
	nc, err := semdisco.NewNetCoordinator(s.cor.Federation, s.shardURLs, ncfg)
	if err != nil {
		return err
	}
	s.nc = nc
	url, stop, err := serve(wrap(newCoordinatorAPI(nc), "httpapi.serve", rec))
	if err != nil {
		return err
	}
	s.url = url
	s.servers = append(s.servers, stop)
	return nil
}

// engines lists every engine of the system: the single engine, or every
// replica's.
func (s *system) engines() []*semdisco.Engine {
	if s.eng != nil {
		return []*semdisco.Engine{s.eng}
	}
	var out []*semdisco.Engine
	for _, set := range s.shards {
		out = append(out, set...)
	}
	return out
}

// close stops every server and waits for its goroutines.
func (s *system) close() {
	for i := len(s.servers) - 1; i >= 0; i-- {
		s.servers[i]()
	}
	s.servers = nil
}

func newCoordinatorAPI(nc *semdisco.NetCoordinator) http.Handler {
	return httpapi.NewCoordinator(nc, httpapi.WithLogger(discardLogger()))
}

// discardLogger is a request logger like semdisco-serve's default text
// logger, writing nowhere: the formatting cost stays, the output goes.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// serve starts an HTTP server on a fresh loopback port. stop closes it and
// waits until its accept loop has returned.
func serve(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listening: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Close() // closes the listener and every connection
		<-done
	}, nil
}

// waitHealthy polls url's /healthz until it answers 200.
func waitHealthy(url string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never answered /healthz: %v", url, err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}
