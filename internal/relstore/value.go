package relstore

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Kind identifies the type of a Value.
type Kind uint8

// Supported value kinds. KNull appears only in operator output (e.g. the
// non-matching side of a left outer join); table rows must be fully typed.
const (
	KNull Kind = iota
	KInt32
	KInt64
	KFloat64
	KString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KNull:
		return "NULL"
	case KInt32:
		return "INT"
	case KInt64:
		return "BIGINT"
	case KFloat64:
		return "DOUBLE"
	case KString:
		return "VARCHAR"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Column describes one attribute of a Schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	Cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from columns. Column names must be unique.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.byName[c.Name]; dup {
			panic("relstore: duplicate column " + c.Name)
		}
		s.byName[c.Name] = i
	}
	return s
}

// ColIndex returns the position of the named column, panicking if absent.
// Schemas are program constants, so a misspelling is a programming error.
func (s *Schema) ColIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic("relstore: unknown column " + name)
	}
	return i
}

// Value is a dynamically typed cell. Exactly one of I, F, S is meaningful
// depending on Kind.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// I32 makes an INT value.
func I32(v int32) Value { return Value{Kind: KInt32, I: int64(v)} }

// I64 makes a BIGINT value.
func I64(v int64) Value { return Value{Kind: KInt64, I: v} }

// F64 makes a DOUBLE value.
func F64(v float64) Value { return Value{Kind: KFloat64, F: v} }

// Str makes a VARCHAR value.
func Str(s string) Value { return Value{Kind: KString, S: s} }

// Null makes a NULL value.
func Null() Value { return Value{Kind: KNull} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KNull }

// Int returns the integer payload of an INT or BIGINT value.
func (v Value) Int() int64 { return v.I }

// Float returns the numeric payload as a float64, converting integers.
func (v Value) Float() float64 {
	if v.Kind == KInt32 || v.Kind == KInt64 {
		return float64(v.I)
	}
	return v.F
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KNull:
		return "NULL"
	case KInt32, KInt64:
		return fmt.Sprintf("%d", v.I)
	case KFloat64:
		return fmt.Sprintf("%g", v.F)
	case KString:
		return fmt.Sprintf("%q", v.S)
	}
	return "?"
}

// Tuple is one row.
type Tuple []Value

// Clone returns a deep-enough copy of the tuple (strings are immutable).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// EncodeTuple appends the row-format encoding of t to dst. The tuple must
// match the schema exactly; NULLs are not storable.
func EncodeTuple(dst []byte, s *Schema, t Tuple) ([]byte, error) {
	if len(t) != len(s.Cols) {
		return nil, fmt.Errorf("relstore: tuple arity %d != schema arity %d", len(t), len(s.Cols))
	}
	for i, c := range s.Cols {
		v := t[i]
		if v.Kind != c.Kind {
			return nil, fmt.Errorf("relstore: column %s: kind %v != %v", c.Name, v.Kind, c.Kind)
		}
		switch c.Kind {
		case KInt32:
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(int32(v.I)))
			dst = append(dst, b[:]...)
		case KInt64:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v.I))
			dst = append(dst, b[:]...)
		case KFloat64:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
			dst = append(dst, b[:]...)
		case KString:
			if len(v.S) > math.MaxUint16 {
				return nil, fmt.Errorf("relstore: column %s: string too long (%d)", c.Name, len(v.S))
			}
			var b [2]byte
			binary.LittleEndian.PutUint16(b[:], uint16(len(v.S)))
			dst = append(dst, b[:]...)
			dst = append(dst, v.S...)
		default:
			return nil, fmt.Errorf("relstore: column %s: unencodable kind %v", c.Name, c.Kind)
		}
	}
	return dst, nil
}

// DecodeTuple parses a row-format record according to the schema.
func DecodeTuple(s *Schema, rec []byte) (Tuple, error) {
	t := make(Tuple, len(s.Cols))
	if err := decodeInto(s, rec, t); err != nil {
		return nil, err
	}
	return t, nil
}

// decodeInto is DecodeTuple into t, which has the schema's arity.
func decodeInto(s *Schema, rec []byte, t Tuple) error {
	off := 0
	for i, c := range s.Cols {
		switch c.Kind {
		case KInt32:
			if off+4 > len(rec) {
				return fmt.Errorf("relstore: short record at column %s", c.Name)
			}
			t[i] = I32(int32(binary.LittleEndian.Uint32(rec[off:])))
			off += 4
		case KInt64:
			if off+8 > len(rec) {
				return fmt.Errorf("relstore: short record at column %s", c.Name)
			}
			t[i] = I64(int64(binary.LittleEndian.Uint64(rec[off:])))
			off += 8
		case KFloat64:
			if off+8 > len(rec) {
				return fmt.Errorf("relstore: short record at column %s", c.Name)
			}
			t[i] = F64(math.Float64frombits(binary.LittleEndian.Uint64(rec[off:])))
			off += 8
		case KString:
			if off+2 > len(rec) {
				return fmt.Errorf("relstore: short record at column %s", c.Name)
			}
			n := int(binary.LittleEndian.Uint16(rec[off:]))
			off += 2
			if off+n > len(rec) {
				return fmt.Errorf("relstore: short string at column %s", c.Name)
			}
			t[i] = Str(string(rec[off : off+n]))
			off += n
		default:
			return fmt.Errorf("relstore: column %s: undecodable kind %v", c.Name, c.Kind)
		}
	}
	return nil
}

// fixedCol returns the bytes of column col inside the row-format record rec,
// without decoding anything else: the columns before it are stepped over by
// their widths (a string's by its length prefix). col must be a fixed-width
// column — the in-place accessors built on this (Table.ReadCols,
// Table.SetCol, RowBatch.SetCol) read and overwrite a column where it lies,
// which a column that can change length does not allow.
func (s *Schema) fixedCol(rec []byte, col int) ([]byte, error) {
	if col < 0 || col >= len(s.Cols) {
		return nil, fmt.Errorf("relstore: no column %d in a schema of %d", col, len(s.Cols))
	}
	off := 0
	for i := 0; ; i++ {
		width := 0
		switch s.Cols[i].Kind {
		case KInt32:
			width = 4
		case KInt64, KFloat64:
			width = 8
		case KString:
			if i == col {
				return nil, fmt.Errorf("relstore: column %s is not fixed-width", s.Cols[i].Name)
			}
			if off+2 > len(rec) {
				return nil, fmt.Errorf("relstore: short record at column %s", s.Cols[i].Name)
			}
			width = 2 + int(binary.LittleEndian.Uint16(rec[off:]))
		default:
			return nil, fmt.Errorf("relstore: column %s: undecodable kind %v", s.Cols[i].Name, s.Cols[i].Kind)
		}
		if off+width > len(rec) {
			return nil, fmt.Errorf("relstore: short record at column %s", s.Cols[i].Name)
		}
		if i == col {
			return rec[off : off+width], nil
		}
		off += width
	}
}

// fixedValue decodes a fixed-width column's bytes, as fixedCol returns them.
func fixedValue(k Kind, b []byte) Value {
	switch k {
	case KInt32:
		return I32(int32(binary.LittleEndian.Uint32(b)))
	case KInt64:
		return I64(int64(binary.LittleEndian.Uint64(b)))
	default:
		return F64(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
}

// putFixedValue overwrites a fixed-width column's bytes with v, which must
// be of the column's kind.
func putFixedValue(c Column, b []byte, v Value) error {
	if v.Kind != c.Kind {
		return fmt.Errorf("relstore: column %s: kind %v != %v", c.Name, v.Kind, c.Kind)
	}
	switch c.Kind {
	case KInt32:
		binary.LittleEndian.PutUint32(b, uint32(int32(v.I)))
	case KInt64:
		binary.LittleEndian.PutUint64(b, uint64(v.I))
	default:
		binary.LittleEndian.PutUint64(b, math.Float64bits(v.F))
	}
	return nil
}

// AppendKey appends an order-preserving (memcmp-comparable) encoding of the
// values to dst. Integers use biased big-endian form; floats use the usual
// sign-flip trick; strings are zero-escaped and terminated so that prefixes
// sort first. NULL cannot appear in a key.
func AppendKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		switch v.Kind {
		case KInt32:
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], uint32(int32(v.I))^0x80000000)
			dst = append(dst, b[:]...)
		case KInt64:
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(v.I)^(1<<63))
			dst = append(dst, b[:]...)
		case KFloat64:
			bits := math.Float64bits(v.F)
			if bits&(1<<63) != 0 {
				bits = ^bits
			} else {
				bits |= 1 << 63
			}
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], bits)
			dst = append(dst, b[:]...)
		case KString:
			for i := 0; i < len(v.S); i++ {
				if c := v.S[i]; c == 0 {
					dst = append(dst, 0, 0xFF)
				} else {
					dst = append(dst, c)
				}
			}
			dst = append(dst, 0, 0)
		default:
			panic("relstore: NULL or invalid value in key")
		}
	}
	return dst
}

// EncodeKey is AppendKey into a fresh slice, sized up front so that the key
// costs one allocation (a string with zero bytes to escape may still grow it).
func EncodeKey(vals ...Value) []byte {
	n := 0
	for _, v := range vals {
		n += 8 + len(v.S)
	}
	return AppendKey(make([]byte, 0, n), vals...)
}

// PrefixSuccessor returns the smallest byte string greater than every string
// having the given prefix, for use as the exclusive upper bound of a prefix
// range scan. It returns nil when no such bound exists (all 0xFF).
func PrefixSuccessor(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
