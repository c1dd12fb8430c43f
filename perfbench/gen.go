package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/largemail/largemail/internal/loadgen"
	"github.com/largemail/largemail/internal/mail/mailstore"
)

// deployment is a population of users homed on regions × serversPerRegion
// servers named S0..S<n-1>. Each user's authority list is two servers of
// its region, so registrations name servers explicitly.
type deployment struct {
	pop   loadgen.Population
	names []string // user index → syntax-directed name (nil: formatted on demand)
}

func newDeployment(users, regions, serversPerRegion int) *deployment {
	pop := loadgen.Population{Users: users, Regions: regions, ServersPerRegion: serversPerRegion,
		HostsPerRegion: 2 * serversPerRegion, AuthorityLen: 2}
	d := &deployment{pop: pop, names: make([]string, users)}
	for u := range d.names {
		d.names[u] = pop.Name(u).String()
	}
	return d
}

// name is user u's name; deployments built without the name table (the
// 1M-user simulator's) format it on demand.
func (d *deployment) name(u int) string {
	if d.names != nil {
		return d.names[u]
	}
	return d.pop.Name(u).String()
}

func (d *deployment) servers() []string {
	out := make([]string, d.pop.TotalServers())
	for i := range out {
		out[i] = fmt.Sprintf("S%d", i)
	}
	return out
}

// authority is user u's ordered authority list: two neighbouring servers of
// the user's region, starting at one picked by host.
func (d *deployment) authority(u int) []string {
	spr := d.pop.ServersPerRegion
	base := d.pop.RegionOf(u) * spr
	h := d.pop.HostOf(u)
	return []string{fmt.Sprintf("S%d", base+h%spr), fmt.Sprintf("S%d", base+(h+1)%spr)}
}

type opKind uint8

const (
	opSubmit opKind = iota
	opGetMail
	opQuery
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"submit", "getmail", "query"}[k]
}

// op is one generated client operation. Bodies and subjects index the
// workload's corpus so the stream costs no generation time while measured.
type op struct {
	kind    opKind
	from    int
	to      []int
	user    int // getmail
	subject int
	body    int
	query   []string // content terms, conjunction
	probe   bool     // a search probe the replay added; never sent over the wire
}

// corpus is a seeded pool of subjects and bodies. Indexed words are drawn
// Zipf-skewed from a vocabulary, so a few terms are common and most are
// rare; filler is single letters, which the term index ignores. Query terms
// named "absent…" are never generated, so a sketch can prove them missing.
type corpus struct {
	subjects []string
	bodies   []string
	vocab    []string
}

func newCorpus(rng *rand.Rand, nBodies, minBody, maxBody, vocabSize int) *corpus {
	c := &corpus{vocab: make([]string, vocabSize)}
	for i := range c.vocab {
		c.vocab[i] = word(i)
	}
	zipf := rand.NewZipf(rng, 1.1, 4, uint64(vocabSize-1))
	for i := 0; i < 64; i++ {
		c.subjects = append(c.subjects, "re "+c.vocab[zipf.Uint64()])
	}
	var b strings.Builder
	for i := 0; i < nBodies; i++ {
		b.Reset()
		size := minBody + rng.Intn(maxBody-minBody+1)
		for b.Len() < size {
			if rng.Intn(32) == 0 {
				b.WriteString(c.vocab[zipf.Uint64()])
			} else {
				b.WriteByte(byte('a' + rng.Intn(26)))
			}
			b.WriteByte(' ')
		}
		c.bodies = append(c.bodies, b.String()[:size])
	}
	return c
}

// word is vocabulary entry i: a pronounceable token of two or more letters.
func word(i int) string {
	const cons, vows = "bdfgklmnprstvz", "aeiou"
	var b strings.Builder
	for n := i + 1; n > 0; n /= len(cons) * len(vows) {
		k := n % (len(cons) * len(vows))
		b.WriteByte(cons[k%len(cons)])
		b.WriteByte(vows[k/len(cons)])
	}
	return b.String()
}

// terms is what the mailbox store indexes for op's message.
func (c *corpus) terms(o *op) []string {
	return mailstore.Terms(c.subjects[o.subject], c.bodies[o.body])
}

// queryText renders a conjunction of content terms as the canonical attr
// query the wire query verb accepts.
func queryText(terms []string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = "content=" + t
	}
	return strings.Join(parts, ", ")
}

// pickQuery draws a query mixing common terms (admitted by most sketches),
// rare ones (admitted by few) and absent ones (pruned everywhere but on a
// false positive).
func (c *corpus) pickQuery(rng *rand.Rand) []string {
	switch r := rng.Intn(10); {
	case r < 3:
		return []string{c.vocab[rng.Intn(8)]}
	case r < 6:
		return []string{c.vocab[64+rng.Intn(len(c.vocab)-64)]}
	case r < 8:
		return []string{fmt.Sprintf("absent%d", rng.Intn(1<<20))}
	default:
		return []string{c.vocab[rng.Intn(8)], c.vocab[8+rng.Intn(56)]}
	}
}
