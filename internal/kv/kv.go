// Package kv is the value codec the text grammars share: impairment
// timeline steps, scenario directives, "clos:" fabric specs and scheme
// -opt options. A grammar declares a table of Fields, each binding a key to
// the variable that holds its value, and the codec parses, renders and
// zero-tests the values. One codec means every grammar writes a value the
// same way: durations and rates in the sim units, floats at full precision.
//
// Rendering is canonical and lossless: Set(String()) restores every value
// Set can produce (durations and rates parse only non-negative).
package kv

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// Field binds a key to a variable. Ptr is one of *string, *int, *int64,
// *uint64, *float64, *bool, *sim.Duration or *sim.Rate; any other type is a
// programming error and panics.
type Field struct {
	Key string
	Ptr any
}

// Set parses s into the field's variable, which is left unchanged on error.
// Integers are decimal, floats take strconv syntax, booleans strconv's
// words, durations sim.ParseDuration's units and rates sim.ParseRate's.
func (f Field) Set(s string) error {
	switch p := f.Ptr.(type) {
	case *string:
		*p = s
		return nil
	case *int:
		return set(p, s, "integer", strconv.Atoi)
	case *int64:
		return set(p, s, "integer", func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
	case *uint64:
		return set(p, s, "unsigned integer", func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) })
	case *float64:
		return set(p, s, "number", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	case *bool:
		return set(p, s, "boolean", strconv.ParseBool)
	case *sim.Duration:
		return set(p, s, "", sim.ParseDuration)
	case *sim.Rate:
		return set(p, s, "", sim.ParseRate)
	}
	panic(fmt.Sprintf("kv: key %s bound to unsupported %T", f.Key, f.Ptr))
}

// set stores parse(s) in *p. A parser error is replaced by "bad <what>"
// unless what is empty: the sim parsers' own messages name the units.
func set[T any](p *T, s, what string, parse func(string) (T, error)) error {
	v, err := parse(s)
	if err != nil {
		if what != "" {
			return fmt.Errorf("bad %s %q", what, s)
		}
		return err
	}
	*p = v
	return nil
}

// String renders the field's value canonically: floats in the shortest form
// that round-trips, durations with ExactString, rates with Rate.String.
func (f Field) String() string {
	switch p := f.Ptr.(type) {
	case *string:
		return *p
	case *int:
		return strconv.Itoa(*p)
	case *int64:
		return strconv.FormatInt(*p, 10)
	case *uint64:
		return strconv.FormatUint(*p, 10)
	case *float64:
		return strconv.FormatFloat(*p, 'g', -1, 64)
	case *bool:
		return strconv.FormatBool(*p)
	case *sim.Duration:
		return p.ExactString()
	case *sim.Rate:
		return p.String()
	}
	panic(fmt.Sprintf("kv: key %s bound to unsupported %T", f.Key, f.Ptr))
}

// Zero reports whether the field holds its type's zero value. A float is
// zero when it == 0, so -0 is zero too.
func (f Field) Zero() bool {
	if p, ok := f.Ptr.(*float64); ok {
		return *p == 0
	}
	return reflect.ValueOf(f.Ptr).Elem().IsZero()
}

// Lookup returns the field bound to key. An unknown key is an error listing
// every key of the table, so the message cannot drift from what is accepted.
func Lookup(fields []Field, key string) (Field, error) {
	for _, f := range fields {
		if f.Key == key {
			return f, nil
		}
	}
	keys := make([]string, len(fields))
	for i, f := range fields {
		keys[i] = f.Key
	}
	return Field{}, fmt.Errorf("unknown parameter %q (want %s)", key, strings.Join(keys, ", "))
}

// Parse sets fields from key=value words. A word without '=', an unknown
// key and a key given twice are errors, as is a value its field rejects.
func Parse(words []string, fields []Field) error {
	seen := make(map[string]bool, len(words))
	for _, w := range words {
		key, val, ok := strings.Cut(w, "=")
		if !ok {
			return fmt.Errorf("parameter %q is not key=value", w)
		}
		f, err := Lookup(fields, key)
		if err != nil {
			return err
		}
		if seen[key] {
			return fmt.Errorf("repeated parameter %q", key)
		}
		seen[key] = true
		if err := f.Set(val); err != nil {
			return fmt.Errorf("%s: %v", key, err)
		}
	}
	return nil
}
