package experiments

import (
	"github.com/aeolus-transport/aeolus/internal/scheme"

	// The transport packages self-register their scheme catalogues from
	// init; these imports are what populate the registry for every
	// experiments user (both CLIs import this package).
	_ "github.com/aeolus-transport/aeolus/internal/transport/expresspass"
	_ "github.com/aeolus-transport/aeolus/internal/transport/homa"
	_ "github.com/aeolus-transport/aeolus/internal/transport/ndp"
)

// Scheme and SchemeSpec alias the catalogue types; see internal/scheme for
// the registry and the Family/Variant registration model.
type (
	Scheme     = scheme.Scheme
	SchemeSpec = scheme.Spec
)

// MakeScheme builds a Scheme from a spec, resolved against the registry.
// An unknown ID (or a bad -opt value) returns an error carrying the full
// catalogue, suitable for printing to users verbatim.
func MakeScheme(spec SchemeSpec) (Scheme, error) { return scheme.Build(spec) }

// Schemes returns the catalogue in registration order.
func Schemes() []scheme.Entry { return scheme.Entries() }

// SchemeCatalog renders the catalogue as an aligned listing for CLI help
// and error output.
func SchemeCatalog() string { return scheme.Catalog() }
