package embeddings

import (
	"dmt/internal/quant"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dmt/internal/comm"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// Round kinds of the client→server request protocol.
const (
	roundLookup int32 = iota
	roundUpdate
)

// RemoteConfig sizes a disaggregated embedding tier.
type RemoteConfig struct {
	// Clients is the number of compute ranks (global ranks 0..Clients-1).
	Clients int
	// Servers is the number of dedicated embedding-server ranks; server s is
	// global rank Clients+s on the network and owns every table f with
	// f % Servers == s.
	Servers int
	// Tables are the canonical embedding tables, indexed by feature. The
	// tier takes them over: after NewRemote only server goroutines touch
	// them, and clients reach rows exclusively through the wire protocol.
	Tables []*nn.EmbeddingBag
	// SparseLR drives the per-server SparseAdam.
	SparseLR float32
	// CacheRows is each client's hot-ID cache capacity (0 disables).
	CacheRows int
	// Net prices the request/response rounds; it must span Clients+Servers
	// global ranks. nil runs the protocol with instant delivery (tests).
	Net *comm.Network
}

// RemoteTier disaggregates the embedding tables onto dedicated server ranks.
// Each (client, server) pair owns a private 2-rank comm group; a client
// round is one request collective plus one (lookup) or two (update) row
// collectives on that pair, and each server is one goroutine serving clients
// round-robin in ascending rank order — a fixed schedule that keeps the
// virtual timeline deterministic. Round symmetry (see Store) guarantees the
// schedule never starves: every client issues exactly one round to every
// server per phase, empty or not.
//
// Server goroutines run under comm.RunLinked with every pair group linked,
// so a server panic (e.g. an out-of-range row id) cancels all of them and
// any client blocked on a response aborts instead of deadlocking — the same
// teardown cascade the SPTT dataflow relies on, extended to the server-rank
// topology.
type RemoteTier struct {
	cfg RemoteConfig
	dim int
	// pairs[c][s] is the 2-rank group of client c and server s (client is
	// group rank 0, server rank 1).
	pairs   [][][]*comm.Comm
	clients []Store
	// roundDone[c][s] receives once per round server s finishes for
	// client c (buffered: a server is never more than one round ahead).
	roundDone [][]chan struct{}
	opts      []*nn.SparseAdam // per server

	done   chan struct{}
	closed int32

	mu  sync.Mutex
	err error

	lookups, updates                   int64
	lookupCrossBytes, updateCrossBytes int64
	lookupExposedNS, updateExposedNS   int64
}

// NewRemote builds the tier and starts the server goroutines.
func NewRemote(cfg RemoteConfig) *RemoteTier {
	if cfg.Clients <= 0 || cfg.Servers <= 0 {
		panic(fmt.Sprintf("embeddings: remote tier with %d clients, %d servers", cfg.Clients, cfg.Servers))
	}
	if len(cfg.Tables) == 0 {
		panic("embeddings: remote tier over zero tables")
	}
	t := &RemoteTier{cfg: cfg, dim: cfg.Tables[0].Dim, done: make(chan struct{})}
	for _, e := range cfg.Tables {
		if e.Dim != t.dim {
			panic(fmt.Sprintf("embeddings: table dim %d != %d", e.Dim, t.dim))
		}
	}
	for s := 0; s < cfg.Servers; s++ {
		opt := nn.NewSparseAdam(cfg.SparseLR)
		for f, e := range cfg.Tables {
			if f%cfg.Servers == s {
				opt.Prime(e)
			}
		}
		t.opts = append(t.opts, opt)
	}

	t.pairs = make([][][]*comm.Comm, cfg.Clients)
	t.roundDone = make([][]chan struct{}, cfg.Clients)
	linked := make([][]*comm.Comm, 0, cfg.Clients*cfg.Servers)
	for c := 0; c < cfg.Clients; c++ {
		t.pairs[c] = make([][]*comm.Comm, cfg.Servers)
		t.roundDone[c] = make([]chan struct{}, cfg.Servers)
		for s := 0; s < cfg.Servers; s++ {
			t.roundDone[c][s] = make(chan struct{}, 1)
			var pg []*comm.Comm
			if cfg.Net != nil {
				pg = comm.NewGroupNet(2, cfg.Net, []int{c, cfg.Clients + s})
			} else {
				pg = comm.NewGroup(2)
			}
			t.pairs[c][s] = pg
			linked = append(linked, pg)
		}
	}
	for c := 0; c < cfg.Clients; c++ {
		t.clients = append(t.clients, Cached(&remoteClient{t: t, rank: c}, cfg.CacheRows))
	}

	var serverComms []*comm.Comm
	if cfg.Net != nil {
		granks := make([]int, cfg.Servers)
		for s := range granks {
			granks[s] = cfg.Clients + s
		}
		serverComms = comm.NewGroupNet(cfg.Servers, cfg.Net, granks)
	} else {
		serverComms = comm.NewGroup(cfg.Servers)
	}
	go func() {
		defer close(t.done)
		defer func() {
			if r := recover(); r != nil && atomic.LoadInt32(&t.closed) == 0 {
				t.mu.Lock()
				t.err = fmt.Errorf("embeddings: server tier died: %v", r)
				t.mu.Unlock()
			}
		}()
		comm.RunLinked(serverComms, linked, t.serveLoop)
	}()
	return t
}

// Client returns rank's store handle (cached when CacheRows > 0); stable
// across calls, so the hot-ID cache persists over the whole run.
func (t *RemoteTier) Client(rank int) Store { return t.clients[rank] }

// Err reports the first server-side failure (nil while healthy or after a
// clean Close).
func (t *RemoteTier) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close cancels the pair groups, which wakes every server out of its
// blocking request receive, and waits for the server goroutines to exit.
// Idempotent.
func (t *RemoteTier) Close() {
	if atomic.CompareAndSwapInt32(&t.closed, 0, 1) {
		for _, row := range t.pairs {
			for _, pg := range row {
				comm.CancelGroup(pg)
			}
		}
	}
	<-t.done
}

// Stats aggregates wire and cache counters over all clients.
func (t *RemoteTier) Stats() TierStats {
	st := TierStats{
		Lookups:          atomic.LoadInt64(&t.lookups),
		Updates:          atomic.LoadInt64(&t.updates),
		LookupCrossBytes: atomic.LoadInt64(&t.lookupCrossBytes),
		UpdateCrossBytes: atomic.LoadInt64(&t.updateCrossBytes),
	}
	st.LookupExposed = durationOf(&t.lookupExposedNS)
	st.UpdateExposed = durationOf(&t.updateExposedNS)
	for _, c := range t.clients {
		cs := StatsOf(c)
		st.CacheHits += cs.Hits
		st.CacheMisses += cs.Misses
	}
	return st
}

func durationOf(ns *int64) time.Duration { return time.Duration(atomic.LoadInt64(ns)) }

// serveLoop is one server rank's life: serve clients round-robin forever,
// until cancellation (Close or a peer failure) aborts a receive.
func (t *RemoteTier) serveLoop(c *comm.Comm) {
	s := c.Rank()
	for {
		for cl := 0; cl < t.cfg.Clients; cl++ {
			t.serveRound(t.pairs[cl][s][1], s)
			t.roundDone[cl][s] <- struct{}{}
		}
	}
}

// serveRound answers one client round on a pair group: decode the request,
// then run the kind's response collectives.
func (t *RemoteTier) serveRound(pc *comm.Comm, s int) {
	req := pc.IAlltoAllInt32(make([][]int32, 2)).Wait()[0]
	kind, tables, ids := decodeRequest(req)
	total := 0
	for _, sub := range ids {
		total += len(sub)
	}
	switch kind {
	case roundLookup:
		rows := tensor.New(total, t.dim)
		r := 0
		for i, f := range tables {
			e := t.cfg.Tables[f]
			for _, id := range ids[i] {
				copy(rows.Row(r), e.Table.Row(int(id)))
				r++
			}
		}
		resp := make([]*tensor.Tensor, 2)
		resp[0] = rows
		pc.IAlltoAllTensorsQ(quant.None, resp).Wait()
	case roundUpdate:
		grads := pc.IAlltoAllTensorsQ(quant.None, make([]*tensor.Tensor, 2)).Wait()[0]
		fresh := tensor.New(total, t.dim)
		r := 0
		for i, f := range tables {
			e := t.cfg.Tables[f]
			n := len(ids[i])
			rows := make([]int, n)
			for j, id := range ids[i] {
				rows[j] = int(id)
			}
			g := tensor.New(n, t.dim)
			copy(g.Data(), grads.Data()[r*t.dim:(r+n)*t.dim])
			t.opts[s].Step(e, &nn.SparseGrad{Rows: rows, Grads: g})
			for j, row := range rows {
				copy(fresh.Row(r+j), e.Table.Row(row))
			}
			r += n
		}
		resp := make([]*tensor.Tensor, 2)
		resp[0] = fresh
		pc.IAlltoAllTensorsQ(quant.None, resp).Wait()
	default:
		panic(fmt.Sprintf("embeddings: unknown round kind %d", kind))
	}
}

// awaitRound blocks until server s has finished client c's current round.
// The client's last receive of a round can complete before the server's,
// and that server receive advances the server's virtual clock; without the
// wait, the advance would land in whichever phase the trainer measures
// next, and Network.Now-based phase times would vary from run to run.
func (t *RemoteTier) awaitRound(c, s int) {
	select {
	case <-t.roundDone[c][s]:
	case <-t.done:
	}
}

// encodeRequest packs a round request: [kind, nTables, (table, n, ids...)*].
func encodeRequest(kind int32, tables []int32, ids [][]int32) []int32 {
	out := []int32{kind, int32(len(tables))}
	for i, f := range tables {
		out = append(out, f, int32(len(ids[i])))
		out = append(out, ids[i]...)
	}
	return out
}

func decodeRequest(req []int32) (kind int32, tables []int32, ids [][]int32) {
	kind = req[0]
	n := int(req[1])
	pos := 2
	for i := 0; i < n; i++ {
		tables = append(tables, req[pos])
		cnt := int(req[pos+1])
		pos += 2
		ids = append(ids, req[pos:pos+cnt])
		pos += cnt
	}
	return kind, tables, ids
}

// remoteClient is compute rank `rank`'s uncached wire client. Each Lookup /
// Update fans the batched request out over the servers by table ownership —
// one round per server, ascending, empty rounds included — and reassembles
// the responses in request order.
type remoteClient struct {
	t    *RemoteTier
	rank int
}

func (rc *remoteClient) Dim() int { return rc.t.dim }

// Lookup routes each request to its table's owning server and stitches the
// per-server row responses back into per-request tensors.
func (rc *remoteClient) Lookup(reqs []Req) []*tensor.Tensor {
	t := rc.t
	atomic.AddInt64(&t.lookups, 1)
	S := t.cfg.Servers
	perTables := make([][]int32, S)
	perIDs := make([][][]int32, S)
	// at[i] locates request i's rows in its server's response: (server, row
	// offset within the concatenated response).
	type loc struct{ server, off int }
	at := make([]loc, len(reqs))
	off := make([]int, S)
	for i, r := range reqs {
		s := r.Table % S
		perTables[s] = append(perTables[s], int32(r.Table))
		perIDs[s] = append(perIDs[s], r.IDs)
		at[i] = loc{server: s, off: off[s]}
		off[s] += len(r.IDs)
	}

	resp := make([]*tensor.Tensor, S)
	for s := 0; s < S; s++ {
		pc := t.pairs[rc.rank][s][0]
		req := encodeRequest(roundLookup, perTables[s], perIDs[s])
		e0, _ := pc.Times()
		pc.IAlltoAllInt32(pair2(req)).Wait()
		rows := pc.IAlltoAllTensorsQ(quant.None, make([]*tensor.Tensor, 2)).Wait()[1]
		t.awaitRound(rc.rank, s)
		e1, _ := pc.Times()
		atomic.AddInt64(&t.lookupExposedNS, int64(e1-e0))
		atomic.AddInt64(&t.lookupCrossBytes, int64(4*len(req))+rowBytes(rows))
		resp[s] = rows
	}

	out := make([]*tensor.Tensor, len(reqs))
	for i, r := range reqs {
		rows := tensor.New(len(r.IDs), t.dim)
		src := resp[at[i].server]
		for k := range r.IDs {
			copy(rows.Row(k), src.Row(at[i].off+k))
		}
		out[i] = rows
	}
	return out
}

// Update ships each table's sparse gradient to its owning server and
// returns the post-update rows the servers send back.
func (rc *remoteClient) Update(ups []Upd) []*tensor.Tensor {
	t := rc.t
	atomic.AddInt64(&t.updates, 1)
	S := t.cfg.Servers
	perTables := make([][]int32, S)
	perIDs := make([][][]int32, S)
	perUps := make([][]Upd, S)
	type loc struct{ server, off int }
	at := make([]loc, len(ups))
	off := make([]int, S)
	for i, u := range ups {
		s := u.Table % S
		rows := make([]int32, len(u.Rows))
		for j, r := range u.Rows {
			rows[j] = int32(r)
		}
		perTables[s] = append(perTables[s], int32(u.Table))
		perIDs[s] = append(perIDs[s], rows)
		perUps[s] = append(perUps[s], u)
		at[i] = loc{server: s, off: off[s]}
		off[s] += len(u.Rows)
	}

	resp := make([]*tensor.Tensor, S)
	for s := 0; s < S; s++ {
		pc := t.pairs[rc.rank][s][0]
		req := encodeRequest(roundUpdate, perTables[s], perIDs[s])
		grads := tensor.New(off[s], t.dim)
		r := 0
		for _, u := range perUps[s] {
			copy(grads.Data()[r*t.dim:(r+len(u.Rows))*t.dim], u.GradRows.Data())
			r += len(u.Rows)
		}
		e0, _ := pc.Times()
		pc.IAlltoAllInt32(pair2(req)).Wait()
		pc.IAlltoAllTensorsQ(quant.None, pairT(grads)).Wait()
		fresh := pc.IAlltoAllTensorsQ(quant.None, make([]*tensor.Tensor, 2)).Wait()[1]
		t.awaitRound(rc.rank, s)
		e1, _ := pc.Times()
		atomic.AddInt64(&t.updateExposedNS, int64(e1-e0))
		atomic.AddInt64(&t.updateCrossBytes, int64(4*len(req))+rowBytes(grads)+rowBytes(fresh))
		resp[s] = fresh
	}

	out := make([]*tensor.Tensor, len(ups))
	for i, u := range ups {
		rows := tensor.New(len(u.Rows), t.dim)
		src := resp[at[i].server]
		for k := range u.Rows {
			copy(rows.Row(k), src.Row(at[i].off+k))
		}
		out[i] = rows
	}
	return out
}

// pair2 addresses a request payload to the server side of a pair group.
func pair2(req []int32) [][]int32 {
	out := make([][]int32, 2)
	out[1] = req
	return out
}

// pairT addresses a tensor payload to the server side of a pair group.
func pairT(x *tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, 2)
	out[1] = x
	return out
}

func rowBytes(x *tensor.Tensor) int64 {
	if x == nil {
		return 0
	}
	return 4 * int64(x.Len())
}
