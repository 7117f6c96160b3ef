package store

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"time"
	"unsafe"
)

// This file keeps each entity's decoded value beside its bytes, so
// encoding/json runs at most once per stored version instead of once per
// read.
//
// Entity.val is nil or a *T holding exactly what json.Unmarshal of Data
// gives into a zero T. Every write path — Put, WAL replay, Load,
// ApplyReplicated, LoadReplicationSnapshot — stores the bytes alone; the
// first Get of a version decodes them once and installs the value under
// the shard lock, and every later read into a *T copies it. An installed
// value is never written again, so readers copy it without holding a lock.
//
// The copy rule: what a read hands out shares no slice, map or pointer
// with the cached value, so neither a caller mutating its result nor the
// next version can reach another reader's copy. A type whose references
// a reflective copy cannot reach (unexported slice, map or pointer fields)
// is never cached; reads of it decode every time, as before.

// typeInfo describes how values of one type are copied.
type typeInfo struct {
	// one is [1]T, the shape set copies through.
	one reflect.Type
	// refs: values reach slices, maps, pointers or interfaces that a copy
	// must clone. A type without any is copied by assignment alone.
	refs bool
	// copyable: every such reference is reachable through exported fields
	// (or time.Time's immutable location, which copies share safely).
	copyable bool
}

var (
	typeInfos sync.Map // reflect.Type → typeInfo
	timeType  = reflect.TypeFor[time.Time]()
)

func infoOf(t reflect.Type) typeInfo {
	if i, ok := typeInfos.Load(t); ok {
		return i.(typeInfo)
	}
	i := inspect(t, map[reflect.Type]bool{})
	i.one = reflect.ArrayOf(1, t)
	typeInfos.Store(t, i)
	return i
}

// inspect computes t's typeInfo; visiting breaks cycles through recursive
// types, which always pass through a reference.
func inspect(t reflect.Type, visiting map[reflect.Type]bool) typeInfo {
	if visiting[t] {
		return typeInfo{refs: true, copyable: true}
	}
	visiting[t] = true
	defer delete(visiting, t)
	switch t.Kind() {
	case reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return typeInfo{refs: true}
	case reflect.Interface:
		return typeInfo{refs: true, copyable: true}
	case reflect.Pointer, reflect.Slice:
		return typeInfo{refs: true, copyable: inspect(t.Elem(), visiting).copyable}
	case reflect.Map:
		// Keys are shared by copies, so they must hold no reference.
		return typeInfo{refs: true, copyable: !inspect(t.Key(), visiting).refs && inspect(t.Elem(), visiting).copyable}
	case reflect.Array:
		return inspect(t.Elem(), visiting)
	case reflect.Struct:
		if t == timeType {
			return typeInfo{copyable: true}
		}
		out := typeInfo{copyable: true}
		for i := range t.NumField() {
			f := t.Field(i)
			fi := inspect(f.Type, visiting)
			if !fi.refs {
				continue
			}
			// An embedded struct's exported fields stay settable even when
			// the struct type itself is unexported.
			reachable := f.IsExported() || (f.Anonymous && f.Type.Kind() == reflect.Struct)
			out.refs = true
			out.copyable = out.copyable && fi.copyable && reachable
		}
		return out
	default:
		return typeInfo{copyable: true}
	}
}

// copyOf returns src (a *T) itself when T holds no reference, otherwise
// a fresh *T that shares none with it.
func copyOf(src any) any {
	t := reflect.TypeOf(src).Elem()
	if !infoOf(t).refs {
		return src
	}
	c := reflect.New(t)
	c.Elem().Set(reflect.ValueOf(src).Elem())
	cloneRefs(c.Elem())
	return c.Interface()
}

// set assigns *src to *dst (both *T) as a one-element array copy. Both
// reflect.ValueOf and Value.Set would move every caller's destination
// variable to the heap; NewAt and Copy leave it where it is.
func set(dst, src any) {
	one := infoOf(reflect.TypeOf(dst).Elem()).one
	reflect.Copy(reflect.NewAt(one, pointerOf(dst)).Elem(), reflect.NewAt(one, pointerOf(src)).Elem())
}

// pointerOf is the data word of an interface that holds a pointer.
func pointerOf(v any) unsafe.Pointer {
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1]
}

// cloneRefs gives v, a settable shallow copy, fresh backing for every
// slice, map, pointer and interface it reaches.
func cloneRefs(v reflect.Value) {
	t := v.Type()
	if !infoOf(t).refs {
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			cloneRefs(v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			cloneRefs(v.Index(i))
		}
	case reflect.Slice:
		if v.IsNil() {
			return
		}
		c := reflect.MakeSlice(t, v.Len(), v.Len())
		reflect.Copy(c, v)
		if infoOf(t.Elem()).refs {
			for i := range c.Len() {
				cloneRefs(c.Index(i))
			}
		}
		v.Set(c)
	case reflect.Map:
		if v.IsNil() {
			return
		}
		c := reflect.MakeMapWithSize(t, v.Len())
		k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		deep := infoOf(t.Elem()).refs
		for it := v.MapRange(); it.Next(); {
			k.SetIterKey(it)
			e.SetIterValue(it)
			if deep {
				cloneRefs(e)
			}
			c.SetMapIndex(k, e)
		}
		v.Set(c)
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		c := reflect.New(t.Elem())
		c.Elem().Set(v.Elem())
		cloneRefs(c.Elem())
		v.Set(c)
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		c := reflect.New(v.Elem().Type()).Elem()
		c.Set(v.Elem())
		cloneRefs(c)
		v.Set(c)
	}
}

// decodeInto fills v, a *T, with the entity's value: a copy of the
// cached value when it has v's type, otherwise a fresh decode of Data,
// which is returned too for Get to install when T is copyable. Either way
// *v is replaced, not merged into.
func (e Entity) decodeInto(v any) (fresh any, err error) {
	t := reflect.TypeOf(v)
	if t == nil || t.Kind() != reflect.Pointer || pointerOf(v) == nil {
		return nil, e.wrap(&json.InvalidUnmarshalError{Type: t})
	}
	src := e.val
	if src == nil || reflect.TypeOf(src) != t {
		fresh = reflect.New(t.Elem()).Interface()
		if err := json.Unmarshal(e.Data, fresh); err != nil {
			return nil, e.wrap(err)
		}
		if !infoOf(t.Elem()).copyable {
			set(v, fresh) // never cached, so nothing else holds it
			return nil, nil
		}
		src = fresh
	}
	set(v, copyOf(src))
	return fresh, nil
}

func (e Entity) wrap(err error) error {
	return fmt.Errorf("store: decode %s/%s: %w", e.Kind, e.Key, err)
}

// sameBytes reports whether two entity records carry the same stored
// bytes — not an equal copy, the same backing array. Every write stores
// freshly allocated bytes, so this identifies one version of one entity
// even across a delete and re-create that restarts the version counter.
func sameBytes(a, b Entity) bool {
	return len(a.Data) == len(b.Data) && (len(a.Data) == 0 || &a.Data[0] == &b.Data[0])
}
