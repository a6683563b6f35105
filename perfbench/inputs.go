package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/oracle"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// query is one distinct request body of a workload.
type query struct {
	SQL    string
	Schema string
	body   []byte // the marshaled /v1/diagram request
}

// inputs is everything a workload sends, generated before any timing.
//
// Each workload draws its distinct queries from a seed fixed per
// workload, so every run does the same kind and amount of work: on a
// 2-core host the cold workload's throughput moved by about a quarter
// across query sets drawn from different seeds. The --seed argument
// picks the order the queries are sent in and the traced sample, and so
// changes the sequence (and its hash) without changing the work.
type inputs struct {
	queries []query
	// seq is the request sequence as indices into queries. Time-bounded
	// workloads wrap around when they reach its end; cold-direct sends it
	// exactly once.
	seq []int32
	// fixedCount is true when the run sends seq exactly once.
	fixedCount bool
	// warm lists the queries sent once, in order, during set-up.
	warm []int32
	// sample is the traced pass's replay sample (indices into queries).
	sample []int32
}

// Fixed generation seeds, one per workload.
const (
	warmSeed   = 100
	coldSeed   = 200
	fabricSeed = 300
)

// Workload shape constants (see README.md for why).
const (
	warmMixSize     = 64
	coldPerSecond   = 3000 // cold-direct sends this many distinct queries per --seconds
	fabricRanks     = 100_000
	fabricZipfS     = 1.2
	fabricPerSecond = 12_000 // pre-drawn zipf requests per --seconds (wraps if exhausted)
	traceSample     = 250    // requests per traced and untraced replay half
)

// oracleSchemas are the schemas generated queries run over (the
// cmd/loadgen defaults).
var oracleSchemas = []string{"beers", "sailors"}

func newQuery(sql, schemaName string) query {
	body, _ := json.Marshal(map[string]string{"sql": sql, "schema": schemaName}) // strings always marshal
	return query{SQL: sql, Schema: schemaName, body: body}
}

// genOracle draws one generated query from rng.
func genOracle(rng *rand.Rand, cfg oracle.Config) query {
	name := oracleSchemas[rng.Intn(len(oracleSchemas))]
	s, _ := schema.ByName(name)
	return newQuery(sqlparse.Format(oracle.Generate(rng, s, cfg)), name)
}

// distinctOracle generates n queries with pairwise distinct SQL text,
// skipping texts already in seen.
func distinctOracle(rng *rand.Rand, cfg oracle.Config, n int, seen map[string]bool) []query {
	out := make([]query, 0, n)
	for len(out) < n {
		q := genOracle(rng, cfg)
		if seen[q.SQL] {
			continue
		}
		seen[q.SQL] = true
		out = append(out, q)
	}
	return out
}

// permutation returns a seeded permutation of [0, n).
func permutation(seed int64, n int) []int32 {
	p := make([]int32, n)
	for i, v := range rand.New(rand.NewSource(seed)).Perm(n) {
		p[i] = int32(v)
	}
	return p
}

func makeInputs(workload string, seed int64, seconds int) (*inputs, error) {
	switch workload {
	case "warm-direct":
		return warmInputs(seed), nil
	case "cold-direct":
		return coldInputs(seed, seconds), nil
	case "fabric-skew":
		return fabricInputs(seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

var workloadNames = []string{"warm-direct", "cold-direct", "fabric-skew"}

// warmInputs: the paper's 18 study and qualification queries plus
// generated ones, 64 in all, sent round-robin in a seed-chosen order.
func warmInputs(seed int64) *inputs {
	in := &inputs{}
	seen := map[string]bool{}
	for _, q := range append(corpus.StudyQuestions(), corpus.QualificationQuestions()...) {
		seen[q.SQL] = true
		in.queries = append(in.queries, newQuery(q.SQL, "chinook"))
	}
	cfg := oracle.Config{MaxTables: 3, MaxNegDepth: 2, Skew: 1}
	in.queries = append(in.queries, distinctOracle(rand.New(rand.NewSource(warmSeed)), cfg,
		warmMixSize-len(in.queries), seen)...)
	for i := range in.queries {
		in.warm = append(in.warm, int32(i))
	}
	in.seq = permutation(seed, len(in.queries))
	in.sample = sampleOf(seed, in.seq, 2*traceSample)
	return in
}

// coldInputs: distinct generated queries, each sent once, more of them
// than the cache holds. The traced sample is drawn from further distinct
// queries that the load never sends, so it replays cold traffic too.
func coldInputs(seed int64, seconds int) *inputs {
	n := coldPerSecond * seconds
	extra := 4 * traceSample
	cfg := oracle.Config{MaxTables: 4, MaxNegDepth: 3, Skew: 1}
	in := &inputs{fixedCount: true}
	in.queries = distinctOracle(rand.New(rand.NewSource(coldSeed)), cfg, n+extra, map[string]bool{})
	in.seq = permutation(seed, n)
	for _, j := range permutation(seed+1, extra)[:2*traceSample] {
		in.sample = append(in.sample, int32(n)+j)
	}
	return in
}

// fabricInputs: a Zipf(s=1.2) draw over fabricRanks generated queries.
// Rank r's query comes from a seed fixed per rank, so the hot head of
// the distribution is the same query set on every run; only ranks that
// are actually drawn are generated.
func fabricInputs(seed int64, seconds int) *inputs {
	cfg := oracle.Config{MaxTables: 3, MaxNegDepth: 2, Skew: 1}
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), fabricZipfS, 1, fabricRanks-1)
	in := &inputs{}
	byRank := map[uint64]int32{}
	draw := func() int32 {
		r := z.Uint64()
		if i, ok := byRank[r]; ok {
			return i
		}
		rng := rand.New(rand.NewSource(int64(fabricSeed)*1_000_003 + int64(r)))
		i := int32(len(in.queries))
		in.queries = append(in.queries, genOracle(rng, cfg))
		byRank[r] = i
		return i
	}
	in.seq = make([]int32, fabricPerSecond*seconds)
	for i := range in.seq {
		in.seq[i] = draw()
	}
	// The sample continues the same draw, so it follows the load's mix.
	for i := 0; i < 2*traceSample; i++ {
		in.sample = append(in.sample, draw())
	}
	return in
}

// sampleOf picks n entries of seq (with wrap-around) at a seed-chosen
// offset.
func sampleOf(seed int64, seq []int32, n int) []int32 {
	off := rand.New(rand.NewSource(seed + 7)).Intn(len(seq))
	out := make([]int32, n)
	for i := range out {
		out[i] = seq[(off+i)%len(seq)]
	}
	return out
}

// sequenceHash fingerprints the generated request sequence: the bodies
// in send order, then the warm pass and the traced sample.
func (in *inputs) sequenceHash() string {
	h := fnv.New64a()
	var buf [4]byte
	put := func(ix []int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(ix)))
		h.Write(buf[:])
		for _, i := range ix {
			h.Write(in.queries[i].body)
			h.Write([]byte{0})
		}
	}
	put(in.seq)
	put(in.warm)
	put(in.sample)
	return fmt.Sprintf("%016x", h.Sum64())
}
