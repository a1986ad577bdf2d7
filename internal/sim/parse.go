package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file is the textual side of the time and rate types: parsers for the
// "<number><unit>" forms humans write in CLIs and scenario files, and exact
// renderers whose output round-trips through the parsers bit for bit. The
// impairment-timeline format (internal/netem) is built on them and its fuzz
// target leans on the round-trip guarantee.

// unit is one suffix of a "<number><unit>" quantity and its multiplier.
type unit[T ~int64] struct {
	suffix string
	mul    T
}

// durUnits maps duration suffixes to their picosecond multiplier, ordered so
// that no suffix is tried after one it ends with ("ms" before "s").
var durUnits = []unit[Duration]{
	{"ps", Picosecond},
	{"ns", Nanosecond},
	{"us", Microsecond},
	{"µs", Microsecond},
	{"ms", Millisecond},
	{"s", Second},
}

// rateUnits maps rate suffixes to bits per second, in the same order rule.
var rateUnits = []unit[Rate]{
	{"Gbps", Gbps},
	{"Mbps", Mbps},
	{"Kbps", Kbps},
	{"bps", BitPerSecond},
}

// ParseDuration parses a non-negative duration written as "<number><unit>"
// with unit ps, ns, us (or µs), ms or s — e.g. "50ms", "1.5us", "123ps". A
// bare number is picoseconds. Integer values are parsed exactly (no float
// rounding), so any ExactString output round-trips losslessly.
func ParseDuration(s string) (Duration, error) {
	return parseUnits(s, "duration", `"50ms", "1.5us", "123ps"`, durUnits)
}

// ParseRate parses a non-negative rate written as "<number><unit>" with unit
// bps, Kbps, Mbps or Gbps (e.g. "100Gbps", "2.5Gbps"). A bare number is bits
// per second. Integer values parse exactly, so Rate.String output (which is
// always an integer count of an exact unit) round-trips losslessly.
func ParseRate(s string) (Rate, error) {
	return parseUnits(s, "rate", `"100Gbps", "2.5Gbps"`, rateUnits)
}

// parseUnits is the parser behind ParseDuration and ParseRate: a number and
// an optional suffix from units, where a bare number counts the base unit
// (the multiplier 1). what names the quantity in errors; examples follow
// "want e.g." when the input is not a number at all.
func parseUnits[T ~int64](s, what, examples string, units []unit[T]) (T, error) {
	num, mul := s, T(0)
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) && len(s) > len(u.suffix) {
			num, mul = s[:len(s)-len(u.suffix)], u.mul
			break
		}
	}
	if mul == 0 {
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			return 0, fmt.Errorf("sim: bad %s %q (want e.g. %s)", what, s, examples)
		}
		mul = 1
	}
	// Exact integer path first: "9223372036854775807ps" and every
	// ExactString rendering must survive unharmed by float precision.
	if iv, err := strconv.ParseInt(num, 10, 64); err == nil {
		if iv < 0 {
			return 0, fmt.Errorf("sim: negative %s %q", what, s)
		}
		if iv > math.MaxInt64/int64(mul) {
			return 0, fmt.Errorf("sim: %s %q overflows", what, s)
		}
		return T(iv) * mul, nil
	}
	fv, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("sim: bad %s %q: %v", what, s, err)
	}
	v := fv * float64(mul)
	if math.IsNaN(v) || v < 0 {
		return 0, fmt.Errorf("sim: negative or NaN %s %q", what, s)
	}
	if v >= float64(math.MaxInt64) {
		return 0, fmt.Errorf("sim: %s %q overflows", what, s)
	}
	return T(math.Round(v)), nil
}

// ExactString renders the duration as an integer count of the largest unit
// that divides it evenly: 50 ms renders "50ms", 1234 ps renders "1234ps".
// Unlike String (which rounds to three decimals for display), the output is
// lossless: ParseDuration(d.ExactString()) == d for every non-negative d.
func (d Duration) ExactString() string {
	if d < 0 {
		return "-" + (-d).ExactString()
	}
	for i := len(durUnits) - 1; i >= 0; i-- {
		u := durUnits[i]
		if u.suffix == "µs" {
			continue // "us" is the canonical spelling
		}
		if d%u.mul == 0 {
			return strconv.FormatInt(int64(d/u.mul), 10) + u.suffix
		}
	}
	return strconv.FormatInt(int64(d), 10) + "ps"
}
