package main

import (
	"embed"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"phiopenssl"
)

//go:embed keys/*.key
var keyFiles embed.FS

// keyText returns the embedded RSA private key of the given modulus size
// in the repository's text format (phiopenssl.UnmarshalPrivateKey).
func keyText(bits int) string {
	b, err := keyFiles.ReadFile(fmt.Sprintf("keys/rsa%d.key", bits))
	if err != nil {
		panic(fmt.Sprintf("perfbench: no embedded %d-bit key: %v", bits, err))
	}
	return string(b)
}

// spec is one benchmark workload: an open-loop Poisson load of requests
// drawn from a mix of request shapes, the latency limit slo_met_frac is
// judged against, and the backlog one saturation drain submits.
type spec struct {
	name    string
	rate    float64       // paced arrivals per second
	limit   time.Duration // per-request latency limit
	mix     []share
	backlog int // requests per saturation drain
}

// share is one request shape's weight in a mix.
type share struct {
	shape  shape
	weight float64
}

// shape is the kind of request a TLS terminator offloads. A request is a
// chain of stages; the ops of one stage are issued together and the next
// stage starts when they have all completed.
type shape string

const (
	// shapeRSAKX is RSA key transport: one rsa-priv decrypt.
	shapeRSAKX shape = "rsa-kx"
	// shapeVerify is one public-exponent verify.
	shapeVerify shape = "verify"
	// shapeDHE is DHE-RSA in tlssim's order: dhe-fixed g^x, then a
	// pss-sign over the ServerKeyExchange carrying g^x, then dhe-var.
	shapeDHE shape = "dhe-rsa"
	// shapeMTLS is the DHE chain with two public verifies (client chain
	// and CertificateVerify) issued alongside dhe-var.
	shapeMTLS shape = "mtls-dhe"
)

// specs is the workload table. BENCHMARK.json repeats each rate and limit
// in the workload's "why"; TestBenchmarkJSONMatchesSpecs keeps them equal.
var specs = []spec{
	{name: "rsa-kx", rate: 30, limit: 200 * time.Millisecond,
		mix: []share{{shapeRSAKX, 1}}, backlog: 600},
	{name: "public-verify", rate: 500, limit: 100 * time.Millisecond,
		mix: []share{{shapeVerify, 1}}, backlog: 6000},
	{name: "tls-blend", rate: 80, limit: 2200 * time.Millisecond,
		mix: []share{{shapeRSAKX, 0.4}, {shapeDHE, 0.4}, {shapeMTLS, 0.2}}, backlog: 250},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// kinds lists the workload kinds the spec's mix uses, in canonical order.
func (s spec) kinds() []phiopenssl.WorkloadKind {
	used := map[phiopenssl.WorkloadKind]bool{}
	for _, sh := range s.mix {
		for _, k := range sh.shape.kinds() {
			used[k] = true
		}
	}
	var out []phiopenssl.WorkloadKind
	for _, k := range phiopenssl.WorkloadKinds() {
		if used[k] {
			out = append(out, k)
		}
	}
	return out
}

func (sh shape) kinds() []phiopenssl.WorkloadKind {
	switch sh {
	case shapeRSAKX:
		return []phiopenssl.WorkloadKind{phiopenssl.WorkloadRSAPrivate}
	case shapeVerify:
		return []phiopenssl.WorkloadKind{phiopenssl.WorkloadPublic}
	case shapeDHE:
		return []phiopenssl.WorkloadKind{phiopenssl.WorkloadDHEFixed, phiopenssl.WorkloadPSSSign, phiopenssl.WorkloadDHEVar}
	default:
		return []phiopenssl.WorkloadKind{phiopenssl.WorkloadDHEFixed, phiopenssl.WorkloadPSSSign, phiopenssl.WorkloadDHEVar, phiopenssl.WorkloadPublic}
	}
}

// poolSize is how many distinct requests of each shape a run draws from.
var poolSize = map[shape]int{shapeRSAKX: 256, shapeVerify: 256, shapeDHE: 128, shapeMTLS: 64}

// op is one offloaded exponentiation: the workload kind it is submitted
// as, its lane input, and the answer a scalar math/big reference computed
// when the input was generated.
type op struct {
	kind phiopenssl.WorkloadKind
	in   phiopenssl.WorkloadInput
	want phiopenssl.Nat
}

// template is one request: its shape and its stages of ops.
type template struct {
	shape  shape
	stages [][]op
}

// material is the key and group the inputs are generated for, mirrored
// into math/big for the reference computations.
type material struct {
	bits    int
	n, e, d *big.Int
	p, g    *big.Int
}

func newMaterial(bits int) (*material, error) {
	key, err := phiopenssl.UnmarshalPrivateKey(keyText(bits))
	if err != nil {
		return nil, fmt.Errorf("parse %d-bit key: %w", bits, err)
	}
	group := phiopenssl.DHModp1024()
	return &material{
		bits: bits,
		n:    toBig(key.N), e: toBig(key.E), d: toBig(key.D),
		p: toBig(group.P), g: toBig(group.G),
	}, nil
}

func toBig(x phiopenssl.Nat) *big.Int { return new(big.Int).SetBytes(x.Bytes()) }

func fromBig(x *big.Int) phiopenssl.Nat { return phiopenssl.NatFromBytes(x.Bytes()) }

// below returns a uniform value in [2, m).
func below(rng *rand.Rand, m *big.Int) *big.Int {
	two := big.NewInt(2)
	return new(big.Int).Add(two, new(big.Int).Rand(rng, new(big.Int).Sub(m, two)))
}

// exponent256 returns a 256-bit DH private exponent with its top bit set.
func exponent256(rng *rand.Rand) *big.Int {
	buf := make([]byte, 32)
	rng.Read(buf)
	buf[0] |= 0x80
	return new(big.Int).SetBytes(buf)
}

func (m *material) rsaKX(rng *rand.Rand) op {
	pt := below(rng, m.n)
	c := new(big.Int).Exp(pt, m.e, m.n)
	return op{kind: phiopenssl.WorkloadRSAPrivate, in: phiopenssl.WorkloadInput{A: fromBig(c)}, want: fromBig(pt)}
}

func (m *material) verify(rng *rand.Rand) op {
	s := below(rng, m.n)
	return op{kind: phiopenssl.WorkloadPublic, in: phiopenssl.WorkloadInput{A: fromBig(s)},
		want: fromBig(new(big.Int).Exp(s, m.e, m.n))}
}

// dhe builds the DHE-RSA chain: the server's g^x, its PSS signature over
// the client and server randoms and g^x, and the shared secret with the
// client's public value.
func (m *material) dhe(rng *rand.Rand) ([][]op, error) {
	x, y := exponent256(rng), exponent256(rng)
	gx := new(big.Int).Exp(m.g, x, m.p)
	peer := new(big.Int).Exp(m.g, y, m.p)
	shared := new(big.Int).Exp(peer, x, m.p)
	msg := make([]byte, 64, 64+len(gx.Bytes()))
	rng.Read(msg)
	msg = append(msg, gx.Bytes()...)
	em, err := phiopenssl.EncodePSSSHA256(rng, msg, m.bits-1)
	if err != nil {
		return nil, fmt.Errorf("encode PSS: %w", err)
	}
	sig := new(big.Int).Exp(new(big.Int).SetBytes(em), m.d, m.n)
	return [][]op{
		{{kind: phiopenssl.WorkloadDHEFixed, in: phiopenssl.WorkloadInput{A: fromBig(x)}, want: fromBig(gx)}},
		{{kind: phiopenssl.WorkloadPSSSign, in: phiopenssl.WorkloadInput{A: phiopenssl.NatFromBytes(em)}, want: fromBig(sig)}},
		{{kind: phiopenssl.WorkloadDHEVar, in: phiopenssl.WorkloadInput{A: fromBig(x), B: fromBig(peer)}, want: fromBig(shared)}},
	}, nil
}

func (m *material) template(rng *rand.Rand, sh shape) (template, error) {
	t := template{shape: sh}
	switch sh {
	case shapeRSAKX:
		t.stages = [][]op{{m.rsaKX(rng)}}
	case shapeVerify:
		t.stages = [][]op{{m.verify(rng)}}
	case shapeDHE, shapeMTLS:
		stages, err := m.dhe(rng)
		if err != nil {
			return t, err
		}
		if sh == shapeMTLS {
			stages[2] = append(stages[2], m.verify(rng), m.verify(rng))
		}
		t.stages = stages
	default:
		return t, fmt.Errorf("unknown shape %q", sh)
	}
	return t, nil
}

// inputs is everything a run submits, all derived from the seed: the
// request pools, the paced arrival schedule and request sequence, and the
// saturation backlogs.
type inputs struct {
	pools   map[shape][]template
	paced   []arrival
	backlog [][]*template
}

// arrival is one paced request: its scheduled send time as an offset from
// the start of the phase, and the request.
type arrival struct {
	at  time.Duration
	req *template
}

// stream returns an independent deterministic source for one use of the
// seed, so adding draws to one stream never shifts another.
func stream(seed int64, use int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + use))
}

// generate derives a run's inputs from the seed: pools of requests with
// their reference answers, a Poisson schedule of dur at the spec's rate,
// and drains saturation backlogs.
func generate(s spec, m *material, seed int64, dur time.Duration, drains int) (*inputs, error) {
	in := &inputs{pools: map[shape][]template{}}
	poolRng := stream(seed, 1)
	for _, sh := range s.mix {
		pool := make([]template, poolSize[sh.shape])
		for i := range pool {
			t, err := m.template(poolRng, sh.shape)
			if err != nil {
				return nil, err
			}
			pool[i] = t
		}
		in.pools[sh.shape] = pool
	}
	pick := func(rng *rand.Rand) *template {
		u := rng.Float64()
		sh := s.mix[len(s.mix)-1].shape
		for _, c := range s.mix {
			if u < c.weight {
				sh = c.shape
				break
			}
			u -= c.weight
		}
		pool := in.pools[sh]
		return &pool[rng.Intn(len(pool))]
	}
	schedRng := stream(seed, 2)
	for at := time.Duration(0); ; {
		at += time.Duration(schedRng.ExpFloat64() / s.rate * float64(time.Second))
		if at >= dur {
			break
		}
		in.paced = append(in.paced, arrival{at: at, req: pick(schedRng)})
	}
	drainRng := stream(seed, 3)
	for i := 0; i < drains; i++ {
		b := make([]*template, s.backlog)
		for j := range b {
			b[j] = pick(drainRng)
		}
		in.backlog = append(in.backlog, b)
	}
	return in, nil
}

// warmOps returns one op of each kind the spec uses, from a fixed seed:
// set-up completes these so lazy per-width state is built before timing.
func warmOps(s spec, m *material) ([]op, error) {
	rng := stream(0, 4)
	var ops []op
	seen := map[phiopenssl.WorkloadKind]bool{}
	for _, sh := range s.mix {
		t, err := m.template(rng, sh.shape)
		if err != nil {
			return nil, err
		}
		for _, st := range t.stages {
			for _, o := range st {
				if !seen[o.kind] {
					seen[o.kind] = true
					ops = append(ops, o)
				}
			}
		}
	}
	return ops, nil
}
