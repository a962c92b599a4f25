// Package registry is the one name -> value catalogue under the repo's
// extension points (topology families, routing algorithms, replacement
// policies, router engines, experiments). Each of those packages keeps
// its own exported Register/ByName/Names functions and its own checks on
// the value; the bookkeeping — unique non-empty names, lookup, the two
// name listings, and the "unknown X (registered: ...)" error — lives here
// once.
//
// A Registry is filled from init paths and read-only afterwards, so it
// carries no lock.
package registry

import (
	"fmt"
	"sort"
)

// Registry maps unique names to values of type T, remembering
// registration order (an entry's index is stable: the cache package uses
// it as the Policy id).
type Registry[T any] struct {
	pkg, kind string
	fold      func(string) string
	index     map[string]int
	names     []string
	vals      []T
}

// New returns an empty registry. pkg and kind label its panics and
// errors ("topology", "family"). fold, when non-nil, normalises a name
// before it is compared, so spellings that fold to one key name one
// entry; Names still reports each entry as it was registered.
func New[T any](pkg, kind string, fold func(string) string) *Registry[T] {
	return &Registry[T]{pkg: pkg, kind: kind, fold: fold, index: map[string]int{}}
}

func (r *Registry[T]) key(name string) string {
	if r.fold != nil {
		return r.fold(name)
	}
	return name
}

// Register adds v under name and returns its index. An empty or
// already-taken (folded) name is a programming error and panics.
func (r *Registry[T]) Register(name string, v T) int {
	k := r.key(name)
	if k == "" {
		panic(fmt.Sprintf("%s: %s registered with an empty name", r.pkg, r.kind))
	}
	if _, dup := r.index[k]; dup {
		panic(fmt.Sprintf("%s: %s %q registered twice", r.pkg, r.kind, name))
	}
	r.index[k] = len(r.vals)
	r.names = append(r.names, name)
	r.vals = append(r.vals, v)
	return len(r.vals) - 1
}

// Index returns the registration index of name.
func (r *Registry[T]) Index(name string) (int, bool) {
	i, ok := r.index[r.key(name)]
	return i, ok
}

// Lookup returns the value registered under name.
func (r *Registry[T]) Lookup(name string) (v T, ok bool) {
	if i, ok := r.Index(name); ok {
		return r.vals[i], true
	}
	return v, false
}

// Len is the number of entries; At and Name read entry i in
// registration order.
func (r *Registry[T]) Len() int          { return len(r.vals) }
func (r *Registry[T]) At(i int) T        { return r.vals[i] }
func (r *Registry[T]) Name(i int) string { return r.names[i] }

// Names returns the registered names in registration order.
func (r *Registry[T]) Names() []string {
	return append([]string(nil), r.names...)
}

// Sorted returns the registered names in lexical order.
func (r *Registry[T]) Sorted() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}

// Unknown builds the lookup-miss error. catalogue is printed with %v:
// pass Sorted() or Names(), or a pre-joined string.
func (r *Registry[T]) Unknown(name string, catalogue any) error {
	return fmt.Errorf("%s: unknown %s %q (registered: %v)", r.pkg, r.kind, name, catalogue)
}
