package experiments

import (
	"fmt"
	"slices"
	"strings"

	"github.com/aeolus-transport/aeolus/internal/scheme"
	"github.com/aeolus-transport/aeolus/internal/transport/expresspass"
	"github.com/aeolus-transport/aeolus/internal/transport/homa"
	"github.com/aeolus-transport/aeolus/internal/transport/ndp"
)

// Scheme and SchemeSpec alias the catalogue types; see internal/scheme for
// the Family/Variant model each transport declares its schemes in.
type (
	Scheme     = scheme.Scheme
	SchemeSpec = scheme.Spec
)

// schemeCatalogue is every scheme, in listing order: each transport's
// family and variants as its catalogue.go declares them. A new transport
// adds its list here.
var schemeCatalogue = slices.Concat(expresspass.Schemes(), homa.Schemes(), ndp.Schemes())

// MakeScheme builds a Scheme from a spec, resolved against the catalogue.
// An unknown ID (or a bad -opt value) returns an error carrying the full
// catalogue, suitable for printing to users verbatim.
func MakeScheme(spec SchemeSpec) (Scheme, error) {
	for _, e := range schemeCatalogue {
		if e.ID == spec.ID {
			return e.Build(spec)
		}
	}
	return Scheme{}, fmt.Errorf("unknown scheme %q; available schemes:\n%s", spec.ID, SchemeCatalog())
}

// Schemes returns the catalogue in listing order.
func Schemes() []scheme.Entry { return schemeCatalogue }

// SchemeCatalog renders the catalogue as an aligned listing for CLI help
// and error output.
func SchemeCatalog() string {
	var sb strings.Builder
	for _, e := range schemeCatalogue {
		fmt.Fprintf(&sb, "  %-14s %s\n", e.ID, e.Summary)
	}
	return strings.TrimRight(sb.String(), "\n")
}
