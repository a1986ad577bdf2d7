package bench

import "fmt"

// pinned holds the seed-1 digest of every checked output: the SHA-256 of each
// paper-quick experiment's rendered tables, and RunResult.Digest of each run
// of the other workloads, audited and unaudited variants apart. A change
// that moves one changed what the simulator computes. Regenerate by running
// aeolusperf at seed 1: each mismatch prints the digest it got.
var pinned = map[string]string{
	"paper-quick/fig1":     "11688909e8440eadf6371be1e76c15312c7d8eaf5d43cfde61c1fd0c3df9d784",
	"paper-quick/fig2":     "3eabbdfccd883f3493ded5ee5e29f1b2b08118881c0b3fdd8e4e5db16fe480ca",
	"paper-quick/fig3":     "ae295dbdb417f9a5280ec1819d808711f4d7d2f09cf5ebb0132accccc304e788",
	"paper-quick/fig4":     "3eccca175a21a0c7f6c390172d8ccfb43a62857537ee6a1eb4c528b96cedf6fb",
	"paper-quick/table1":   "84533a423dacd9e5b371810237f16860c0db7efd87e6d3a424e16d53c3733932",
	"paper-quick/fig8":     "84166e4befa0ee7e662f92bd694a94a02d62c9122973dec278653ff9e9a07647",
	"paper-quick/fig11":    "57deab6690ce53153c749b8600675464d4de372193f85dd2cccccf8b7974eeda",
	"paper-quick/fig14":    "a2087419743526744a703547a5d3ced4c0efce8fbfb66238bb55fa3afcd33b49",
	"paper-quick/fig15":    "97989b6af60da968bb0b970b2c13fede5ccac4b1bebbb20c5e31e675aaac15fd",
	"paper-quick/fig16":    "aceffdc3892101996393414a387354b2bda7da41fe9022aa4da2548faecf2fc6",
	"paper-quick/table4":   "08958e1180ce1edcd9aa8d744dc613c17943f5f901b7e4303e300233d9810dd2",
	"paper-quick/table5":   "19c210b9ae22d0f1224e9cac5b78826d917ba2c435693845b77cbe593dd2b11d",
	"paper-quick/fig17":    "dfe508bcad6022568c859c615ae763f8c53c0f79fcb8b180ad7a3a65a7012e48",
	"paper-quick/ablation": "e03cad994d840042e80e313a1664cde3176ac31e702e082ffbb1d7c9d08c32e0",
	"paper-quick/degrade":  "2c7e2eb44c59d5d5aa9504eebe40d81c42af39e4e224032ba160a0acc838fe40",

	"scale-h256/xpass+aeolus":       "a6bdfa5f899a486ae2b370d2271c839f986550051787da6ad68b9c387c1e49c7",
	"scale-h256/xpass+aeolus/audit": "4853be01d834dae5e33a505a5c565d2baf8b1894d2b6992f8a3cd36453e79edb",
	// Each shard draws from its own random streams, so the sharded run's
	// digest differs from the sequential one.
	"scale-h256-s2/xpass+aeolus":       "833a3e8b598c7ee896ce4c7841ee21ab5d0738b32e86068aa36f9000dba3ea18",
	"scale-h256-s2/xpass+aeolus/audit": "31fc3d71e975235385ef80060ab04f0ddf4487e869a0e41839deefb2693ad714",

	"homa-ndp-audited/homa+aeolus/audit": "1b68c45c837df615a58004ecfdf371273436fa4885baf3fe58b207f0538d7571",
	"homa-ndp-audited/ndp+aeolus/audit":  "04d9b8cc54ac054883614562dd4851175c32fa97d9befb7aa9b59579d8e58a88",

	// The smoke-test sizes.
	"tiny/paper-quick/fig8":                   "84166e4befa0ee7e662f92bd694a94a02d62c9122973dec278653ff9e9a07647",
	"tiny/scale-h256/xpass+aeolus":            "60aa27aedc426f0fb1a476903136385c6814c2851caddc669a3bd4ccfb1394f9",
	"tiny/scale-h256/xpass+aeolus/audit":      "954a44a53209c0b1ed6fcaeb3b0a892664bfe857d829b7fd9fef934aaacd0fa8",
	"tiny/scale-h256-s2/xpass+aeolus":         "ccab329bb51366d53d751d9a0b7aec7406ec16d0e712a96db099fa8e9e1d24a3",
	"tiny/scale-h256-s2/xpass+aeolus/audit":   "07b0f287c00ff4c7e6416db1472c18b444cb0ff0fa1a2126361439fe5c13330c",
	"tiny/homa-ndp-audited/homa+aeolus/audit": "ea2f8b3bccd3f1d3dfdba5739c87bcd45bd0475417ef246971648152f9ce0688",
	"tiny/homa-ndp-audited/ndp+aeolus/audit":  "652659ff2c7942a9c28ef55118cf07fe03e2991920b57862b447666dd28c08f5",
}

// checker judges the outputs of every rep it sees. At seed 1 each output
// must match its pinned digest; at any other seed it must match the digest
// the first rep produced. Every run must also finish all its flows and, when
// audited, keep a clean conservation report, and a traced rep must regenerate
// each scenario's trace with the run's flow count.
type checker struct {
	usePins   bool
	seen      map[string]string
	attempted int
	failed    int
	problems  []string
}

func newChecker(seed uint64) *checker {
	return &checker{usePins: seed == 1, seen: make(map[string]string)}
}

func (c *checker) check(rep *Rep) {
	for _, o := range rep.Outputs {
		c.attempted++
		want, ok := c.seen[o.Key]
		if c.usePins {
			want, ok = pinned[o.Key]
			if !ok {
				c.fail("%s: no pinned digest (got %s)", o.Key, o.Digest)
				continue
			}
		} else if !ok {
			c.seen[o.Key] = o.Digest
			want = o.Digest
		}
		switch {
		case o.Digest != want:
			c.fail("%s: digest %s, want %s", o.Key, o.Digest, want)
		case !o.Complete:
			c.fail("%s: flows left incomplete", o.Key)
		case !o.AuditOK:
			c.fail("%s: conservation audit violated", o.Key)
		case !o.InputOK:
			c.fail("%s: the trace regenerated for the timed calls differs from the run's %d flows", o.Key, o.Flows)
		}
	}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}
