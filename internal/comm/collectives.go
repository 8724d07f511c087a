package comm

import (
	"fmt"

	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// The collectives. Each tensor collective is a single non-blocking method
// that takes the wire scheme as an argument: it encodes its payloads with
// quant.Encode at issue time (on the sender, once), posts them, and returns
// a Pending handle whose Wait decodes on the receiver. A blocking call is
// the handle waited at once: c.IAllReduceSumQ(s, x).Wait().
//
// What travels through the mailboxes is always a *quant.Encoded, and the
// traffic counters charge its WireBytes: 4 bytes/element raw, 2 for fp16,
// ~1 for int8, ~0.5 for int4, plus one 4-byte scale per row for the linear
// schemes. Scheme quant.None is the raw wire, not a second implementation:
// Encode(None, t) keeps a reference to t and Decode hands it back, so the
// gathers and AlltoAlls deliver the sender's tensor by reference (the
// in-process analog of zero-copy RDMA), and the reductions' DecodeInto/AddTo
// are exactly CopyFrom/AddInPlace.
//
// Determinism: encoding happens once on the sender, Decode is a pure
// function of the payload, receives run in source-rank order and reductions
// accumulate in rank order, so every rank obtains bit-identical results. A
// rank can also predict exactly what its peers reconstruct from its own
// contribution via quant.Apply — the property the distributed trainer's
// error-feedback residuals rely on.
//
// Payload buffers are pooled (see quant.Encode): the sender holds one
// reference per receiver before posting, and each resolver releases its
// reference once the payload has been decoded or reduced into a tensor the
// caller owns, so steady-state collectives run without per-step codec
// allocations.

// IAlltoAllTensorsQ posts chunks[j] to rank j and returns a handle resolving
// to the received chunks indexed by source rank. Chunk shapes may differ per
// destination (the "V" variant), which the embedding distribution steps rely
// on. Nil chunks travel as nil, charge no bytes and arrive as nil.
func (c *Comm) IAlltoAllTensorsQ(s quant.Scheme, chunks []*tensor.Tensor) *Pending[[]*tensor.Tensor] {
	c.postEach("AlltoAll", s, chunks)
	return newPending(c, c.recvDecoded)
}

// IAlltoAllInt32 posts chunks[j] to rank j and returns a handle resolving to
// the received index chunks indexed by source rank (the sparse-feature
// distribution of SPTT/baseline step a sends indices, not embeddings).
// Indices always travel raw, at 4 bytes each.
func (c *Comm) IAlltoAllInt32(chunks [][]int32) *Pending[[][]int32] {
	n := c.g.size
	if len(chunks) != n {
		panic(fmt.Sprintf("comm: AlltoAllInt32 needs %d chunks, got %d", n, len(chunks)))
	}
	for d := 0; d < n; d++ {
		c.send(d, chunks[d], 4*len(chunks[d]))
	}
	return newPending(c, func() [][]int32 {
		out := make([][]int32, n)
		for s := 0; s < n; s++ {
			if v := c.recv(s); v != nil {
				out[s] = v.([]int32)
			}
		}
		return out
	})
}

// IAllGatherQ posts x to every rank and returns a handle resolving to the
// gathered tensors indexed by source. The payload is encoded once and every
// receiver — including the sender itself — decodes its own copy, so all
// ranks see the same post-quantization values.
func (c *Comm) IAllGatherQ(s quant.Scheme, x *tensor.Tensor) *Pending[[]*tensor.Tensor] {
	c.postAll(s, x)
	return newPending(c, c.recvDecoded)
}

// IAllGatherBatchQ posts the whole slice xs to every rank as ONE mailbox
// message and returns a handle resolving to the gathered slices, indexed
// [src][i]. The batched form exists for gradient bucketing: b tensors
// travel as one message instead of b, amortizing per-message
// synchronization (the in-process analog of coalescing small gradients into
// one NCCL launch). Each tensor is encoded separately — preserving its own
// row structure, which is what keeps bucketed compressed reductions bitwise
// identical to per-tensor ones — and every receiver decodes its own copies.
func (c *Comm) IAllGatherBatchQ(s quant.Scheme, xs []*tensor.Tensor) *Pending[[][]*tensor.Tensor] {
	encs := make([]*quant.Encoded, len(xs))
	for i, x := range xs {
		encs[i] = quant.Encode(s, x)
	}
	resolve := c.postGatherBatchEnc(encs)
	return newPending(c, func() [][]*tensor.Tensor {
		es := resolve()
		out := make([][]*tensor.Tensor, len(es))
		for src, srcEncs := range es {
			ts := make([]*tensor.Tensor, len(srcEncs))
			for i, e := range srcEncs {
				ts[i] = e.Decode()
				e.Release()
			}
			out[src] = ts
		}
		return out
	})
}

// IAllGatherBatchEnc gathers pre-encoded payloads: the whole batch travels
// to every rank as one mailbox message, and the handle resolves to the
// payloads indexed [src][i] so the receiver can run the fused
// DecodeInto/AddTo paths without materializing intermediate tensors. The
// collective takes over the caller's reference on each payload; the resolver
// hands each receiver one reference per payload, which the receiver must
// Release after consuming.
func (c *Comm) IAllGatherBatchEnc(encs []*quant.Encoded) *Pending[[][]*quant.Encoded] {
	return newPending(c, c.postGatherBatchEnc(encs))
}

// postGatherBatchEnc posts the encoded batch to every rank and returns the
// resolver, shared by IAllGatherBatchEnc and IAllGatherBatchQ (each wraps it
// in its own single Pending — handles cannot nest, Wait order is a ticket).
func (c *Comm) postGatherBatchEnc(encs []*quant.Encoded) func() [][]*quant.Encoded {
	n := c.g.size
	bytes := 0
	for _, e := range encs {
		e.Retain(n - 1) // with the caller's reference: one per receiver
		bytes += e.WireBytes()
	}
	for d := 0; d < n; d++ {
		c.send(d, encs, bytes)
	}
	return func() [][]*quant.Encoded {
		out := make([][]*quant.Encoded, n)
		for src := 0; src < n; src++ {
			out[src] = c.recv(src).([]*quant.Encoded)
		}
		return out
	}
}

// IAllReduceSumQ posts x to every rank and returns a handle resolving to the
// elementwise sum of every rank's contribution, accumulated in rank order
// (bit-identical on all ranks, unlike real ring reductions). Because each
// contribution is encoded once for every receiver, all ranks sum the same
// post-quantization values.
func (c *Comm) IAllReduceSumQ(s quant.Scheme, x *tensor.Tensor) *Pending[*tensor.Tensor] {
	c.postAll(s, x)
	return newPending(c, c.recvSum)
}

// IReduceScatterSumQ posts chunks[j] to rank j and returns a handle
// resolving to the rank-ordered sum of the chunks addressed to this rank.
// This is step (d) of SPTT for row-wise-sharded multi-hot tables (§3.1.3),
// where partial pooled embeddings must be summed rather than concatenated.
// Unlike the AlltoAll, every chunk must be non-nil: the reduction needs a
// contribution from every rank.
func (c *Comm) IReduceScatterSumQ(s quant.Scheme, chunks []*tensor.Tensor) *Pending[*tensor.Tensor] {
	for d, x := range chunks {
		if x == nil {
			panic(fmt.Sprintf("comm: ReduceScatter chunk for rank %d is nil", d))
		}
	}
	c.postEach("ReduceScatter", s, chunks)
	return newPending(c, c.recvSum)
}

// postEach encodes chunks[d] and posts it to rank d. Ownership of each
// payload's single reference transfers to its one receiver; a nil chunk
// travels as nil and charges no bytes.
func (c *Comm) postEach(op string, s quant.Scheme, chunks []*tensor.Tensor) {
	if len(chunks) != c.g.size {
		panic(fmt.Sprintf("comm: %s needs %d chunks, got %d", op, c.g.size, len(chunks)))
	}
	for d, x := range chunks {
		var enc *quant.Encoded
		nbytes := 0
		if x != nil {
			enc = quant.Encode(s, x)
			nbytes = enc.WireBytes()
		}
		c.send(d, enc, nbytes)
	}
}

// postAll encodes x once and posts it to every rank, the sender included,
// with one payload reference per receiver.
func (c *Comm) postAll(s quant.Scheme, x *tensor.Tensor) {
	n := c.g.size
	enc := quant.Encode(s, x)
	enc.Retain(n - 1) // the encode's own reference makes n
	for d := 0; d < n; d++ {
		c.send(d, enc, enc.WireBytes())
	}
}

// recvDecoded is the gathers' resolver: it receives one payload from every
// rank and decodes each, in source-rank order (nil stays nil). Under
// quant.None, Decode hands back the sender's tensor itself.
func (c *Comm) recvDecoded() []*tensor.Tensor {
	out := make([]*tensor.Tensor, c.g.size)
	for src := range out {
		if e := c.recv(src).(*quant.Encoded); e != nil {
			out[src] = e.Decode()
			e.Release()
		}
	}
	return out
}

// recvSum is the reductions' resolver: it receives one payload from every
// rank and sums them in source-rank order into a freshly allocated tensor —
// DecodeInto for source 0, the fused AddTo for the rest — so the result
// aliases no payload, and no decoded intermediate is materialized.
func (c *Comm) recvSum() *tensor.Tensor {
	e := c.recv(0).(*quant.Encoded)
	out := tensor.New(e.Shape()...)
	e.DecodeInto(out)
	e.Release()
	for src := 1; src < c.g.size; src++ {
		e := c.recv(src).(*quant.Encoded)
		e.AddTo(out)
		e.Release()
	}
	return out
}
