// Package generative implements the VAE baseline (gAQP, Thirumuruganathan et
// al.): a variational autoencoder trained on tuple encodings that generates
// synthetic tuples, over which queries are then executed. The paper uses it
// both as a Figure 2 baseline (where its inability to produce tuples matching
// selective SPJ filters yields near-zero scores) and as the state-of-the-art
// AQP comparator in the Section 6.4 aggregate study.
//
// The VAE here is real — encoder/decoder MLPs trained by backpropagation with
// the reparameterization trick and a KL(q(z|x) || N(0,I)) regularizer — just
// small: tuples are encoded as standardized numerics plus one-hot categories
// (top values + "other"), and generation decodes z ~ N(0, I) samples.
package generative

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"asqprl/internal/nn"
	"asqprl/internal/table"
)

// Options configures VAE training.
type Options struct {
	// Latent is the latent dimension (default 8).
	Latent int
	// Hidden is the encoder/decoder hidden width (default 48).
	Hidden int
	// Epochs over the training sample (default 30).
	Epochs int
	// BatchRows caps how many rows are used for training (default 4000).
	BatchRows int
	// LR is the Adam learning rate (default 2e-3).
	LR float64
	// TopValues is how many categorical values get their own one-hot slot
	// (default 12).
	TopValues int
	// Seed drives initialization, sampling and generation.
	Seed int64
}

func (o Options) normalize() Options {
	if o.Latent <= 0 {
		o.Latent = 8
	}
	if o.Hidden <= 0 {
		o.Hidden = 48
	}
	if o.Epochs <= 0 {
		o.Epochs = 30
	}
	if o.BatchRows <= 0 {
		o.BatchRows = 4000
	}
	if o.LR <= 0 {
		o.LR = 2e-3
	}
	if o.TopValues <= 0 {
		o.TopValues = 12
	}
	return o
}

// fieldCodec encodes one column into the feature vector and decodes it back.
type fieldCodec struct {
	col    table.Column
	start  int // offset in the feature vector
	width  int
	mean   float64 // numeric standardization
	std    float64
	values []string // categorical slots (last is "other")
}

// VAE is a trained tuple generator for one table.
type VAE struct {
	tableName string
	schema    table.Schema
	codecs    []fieldCodec
	featDim   int
	latent    int
	encoder   *nn.MLP // feat -> [mu, logvar]
	decoder   *nn.MLP // z -> feat
	rng       *rand.Rand
}

// TrainVAE fits a VAE to the rows of t.
func TrainVAE(t *table.Table, opts Options) (*VAE, error) {
	opts = opts.normalize()
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("generative: cannot train on empty table %s", t.Name)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	v := &VAE{tableName: t.Name, schema: t.Schema.Clone(), latent: opts.Latent, rng: rng}
	v.buildCodecs(t, opts)

	v.encoder = nn.NewMLP(rng, nn.ActTanh, v.featDim, opts.Hidden, 2*opts.Latent)
	v.decoder = nn.NewMLP(rng, nn.ActTanh, opts.Latent, opts.Hidden, v.featDim)
	encOpt := nn.NewAdam(v.encoder, opts.LR)
	decOpt := nn.NewAdam(v.decoder, opts.LR)
	encGrads := v.encoder.NewGrads()
	decGrads := v.decoder.NewGrads()

	// Training sample.
	n := t.NumRows()
	rowsUsed := n
	if rowsUsed > opts.BatchRows {
		rowsUsed = opts.BatchRows
	}
	perm := rng.Perm(n)[:rowsUsed]
	feats := make([][]float64, rowsUsed)
	for i, ri := range perm {
		feats[i] = v.encodeRow(t.Row(ri))
	}

	const miniBatch = 32
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		order := rng.Perm(len(feats))
		for start := 0; start < len(order); start += miniBatch {
			end := start + miniBatch
			if end > len(order) {
				end = len(order)
			}
			encGrads.Zero()
			decGrads.Zero()
			inv := 1.0 / float64(end-start)
			for _, oi := range order[start:end] {
				v.step(feats[oi], encGrads, decGrads, inv)
			}
			encOpt.Step(v.encoder, encGrads)
			decOpt.Step(v.decoder, decGrads)
		}
	}
	return v, nil
}

// step accumulates the VAE loss gradient for one example.
func (v *VAE) step(x []float64, encGrads, decGrads *nn.Grads, scale float64) {
	encCache := v.encoder.ForwardCache(x)
	encOut := encCache.Output()
	mu := encOut[:v.latent]
	logvar := encOut[v.latent:]

	// Reparameterize.
	eps := make([]float64, v.latent)
	z := make([]float64, v.latent)
	for i := range z {
		eps[i] = v.rng.NormFloat64()
		z[i] = mu[i] + eps[i]*math.Exp(0.5*logvar[i])
	}

	decCache := v.decoder.ForwardCache(z)
	xhat := decCache.Output()

	// Reconstruction loss: MSE. dL/dxhat = 2(xhat - x).
	dXhat := make([]float64, len(xhat))
	for i := range xhat {
		dXhat[i] = 2 * (xhat[i] - x[i]) * scale
	}
	dZ := v.decoder.Backward(decCache, dXhat, decGrads)

	// Gradient through the encoder: reconstruction via reparameterization
	// plus the KL term KL(N(mu, sigma) || N(0, I)).
	dEnc := make([]float64, 2*v.latent)
	const klWeight = 0.05
	for i := 0; i < v.latent; i++ {
		sigma := math.Exp(0.5 * logvar[i])
		// Reconstruction path.
		dEnc[i] = dZ[i]                                 // d z/d mu = 1
		dEnc[v.latent+i] = dZ[i] * 0.5 * eps[i] * sigma // d z/d logvar
		// KL path: dKL/dmu = mu; dKL/dlogvar = 0.5 (e^logvar − 1).
		dEnc[i] += klWeight * mu[i] * scale
		dEnc[v.latent+i] += klWeight * 0.5 * (math.Exp(logvar[i]) - 1) * scale
	}
	v.encoder.Backward(encCache, dEnc, encGrads)
}

// buildCodecs derives the feature encoding from the table contents.
func (v *VAE) buildCodecs(t *table.Table, opts Options) {
	offset := 0
	for ci, col := range t.Schema {
		c := fieldCodec{col: col, start: offset}
		switch col.Kind {
		case table.KindInt, table.KindFloat:
			var sum, sumSq float64
			n := 0
			for r := 0; r < t.NumRows(); r++ {
				cell := t.Cell(r, ci)
				if cell.IsNull() {
					continue
				}
				f := cell.AsFloat()
				sum += f
				sumSq += f * f
				n++
			}
			if n > 0 {
				c.mean = sum / float64(n)
				c.std = math.Sqrt(math.Max(sumSq/float64(n)-c.mean*c.mean, 1e-9))
			} else {
				c.std = 1
			}
			c.width = 1
		case table.KindBool:
			c.width = 1
			c.std = 1
		case table.KindString:
			counts := map[string]int{}
			for r := 0; r < t.NumRows(); r++ {
				if cell := t.Cell(r, ci); !cell.IsNull() {
					counts[cell.Str]++
				}
			}
			type kv struct {
				v string
				n int
			}
			var all []kv
			for val, n := range counts {
				all = append(all, kv{val, n})
			}
			sort.Slice(all, func(a, b int) bool {
				if all[a].n != all[b].n {
					return all[a].n > all[b].n
				}
				return all[a].v < all[b].v
			})
			top := opts.TopValues
			if top > len(all) {
				top = len(all)
			}
			for _, e := range all[:top] {
				c.values = append(c.values, e.v)
			}
			c.values = append(c.values, "\x00other")
			c.width = len(c.values)
		default:
			c.width = 1
			c.std = 1
		}
		offset += c.width
		v.codecs = append(v.codecs, c)
	}
	v.featDim = offset
}

// encodeRow maps a row into the feature space.
func (v *VAE) encodeRow(r table.Row) []float64 {
	x := make([]float64, v.featDim)
	for fi, c := range v.codecs {
		val := r[fi]
		switch c.col.Kind {
		case table.KindInt, table.KindFloat:
			if !val.IsNull() {
				x[c.start] = (val.AsFloat() - c.mean) / c.std
			}
		case table.KindBool:
			if !val.IsNull() && val.Bool {
				x[c.start] = 1
			}
		case table.KindString:
			slot := len(c.values) - 1 // other
			for i, cand := range c.values[:len(c.values)-1] {
				if cand == val.Str {
					slot = i
					break
				}
			}
			x[c.start+slot] = 1
		}
	}
	return x
}

// decodeRow maps a decoded feature vector back into a table row. Categorical
// slots decode by argmax ("other" resolves to the most common real value),
// numerics de-standardize, and integer columns round.
func (v *VAE) decodeRow(x []float64) table.Row {
	r := make(table.Row, len(v.codecs))
	for fi, c := range v.codecs {
		switch c.col.Kind {
		case table.KindInt:
			r[fi] = table.NewInt(int64(math.Round(x[c.start]*c.std + c.mean)))
		case table.KindFloat:
			r[fi] = table.NewFloat(x[c.start]*c.std + c.mean)
		case table.KindBool:
			r[fi] = table.NewBool(x[c.start] > 0.5)
		case table.KindString:
			best, bestV := 0, math.Inf(-1)
			for i := 0; i < c.width; i++ {
				if x[c.start+i] > bestV {
					best, bestV = i, x[c.start+i]
				}
			}
			val := c.values[best]
			if val == "\x00other" && len(c.values) > 1 {
				val = c.values[0]
			}
			r[fi] = table.NewString(val)
		default:
			r[fi] = table.Null
		}
	}
	return r
}

// Generate synthesizes n tuples by decoding z ~ N(0, I).
func (v *VAE) Generate(n int) *table.Table {
	out := table.New(v.tableName, v.schema)
	z := make([]float64, v.latent)
	for i := 0; i < n; i++ {
		for j := range z {
			z[j] = v.rng.NormFloat64()
		}
		out.AppendRow(v.decodeRow(v.decoder.Forward(z)))
	}
	return out
}

// GenerateDatabase trains one VAE per table of db and generates a synthetic
// database with per-table sizes proportional to the original, totalling k
// tuples — the generative counterpart of an approximation set.
func GenerateDatabase(db *table.Database, k int, opts Options) (*table.Database, error) {
	total := db.TotalRows()
	if total == 0 {
		return nil, fmt.Errorf("generative: empty database")
	}
	out := table.NewDatabase()
	for _, t := range db.Tables() {
		quota := int(float64(k) * float64(t.NumRows()) / float64(total))
		if t.NumRows() == 0 || quota == 0 {
			out.Add(table.New(t.Name, t.Schema))
			continue
		}
		v, err := TrainVAE(t, opts)
		if err != nil {
			return nil, err
		}
		out.Add(v.Generate(quota))
	}
	return out, nil
}
