package cluster

// The wire codec of a count RPC's bulk: the itemset lists a CountRequest
// carries and the count vectors a CountResponse returns. encoding/json
// decodes these lists element by element through reflection, which on a
// stream delta count — thousands of sets per request — was a worker's
// largest CPU cost once the sets were counted through the element trie.
// The codec reads and writes exactly the bytes
// encoding/json does for a []itemset.Itemset and a []int64: it accepts the
// same inputs, yields the same values (null and empty lists alike, a null
// element, decoding into a value a repeated key already filled) and
// writes the same output, so the wire format, the workers' memo digests
// and every DecodeCount check are unchanged. FuzzWireCodec holds it to
// encoding/json.
//
// encoding/json still decodes the messages' other fields and calls the
// codec for these; it hands UnmarshalJSON only well-formed JSON, but the
// codec checks the syntax itself so that it can be compared with
// json.Unmarshal on arbitrary bytes. A type error the codec reports reads
// as encoding/json's, naming the same field and type; only a message with
// a type error in an earlier field as well now names the list's error,
// where encoding/json named the earlier one (both are bad_json).

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"

	"pincer/internal/itemset"
)

// wireSets is an itemset list on the wire: CountRequest's Candidates and
// Elems.
type wireSets []itemset.Itemset

// wireCounts is a count vector on the wire: CountResponse's count fields.
type wireCounts []int64

// The types encoding/json named in its type errors before the codec.
var (
	setsType   = reflect.TypeOf([]itemset.Itemset(nil))
	setType    = reflect.TypeOf(itemset.Itemset(nil))
	itemType   = reflect.TypeOf(itemset.Item(0))
	countsType = reflect.TypeOf([]int64(nil))
	countType  = reflect.TypeOf(int64(0))
)

// MarshalJSON implements json.Marshaler.
func (s wireSets) MarshalJSON() ([]byte, error) {
	n := 2
	for _, set := range s {
		n += 3 + 4*len(set)
	}
	b := make([]byte, 0, n)
	if s == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, set := range s {
		if i > 0 {
			b = append(b, ',')
		}
		if set == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, it := range set {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(it), 10)
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// MarshalJSON implements json.Marshaler.
func (c wireCounts) MarshalJSON() ([]byte, error) {
	if c == nil {
		return []byte("null"), nil
	}
	b := make([]byte, 0, 2+4*len(c))
	b = append(b, '[')
	for i, n := range c {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, n, 10)
	}
	return append(b, ']'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *wireSets) UnmarshalJSON(data []byte) error {
	d := listDecoder{data: data}
	v, err := decodeSlice(&d, []itemset.Itemset(*s), setsType, decodeSet)
	*s = v
	if err != nil {
		return err
	}
	return d.end()
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *wireCounts) UnmarshalJSON(data []byte) error {
	d := listDecoder{data: data}
	v, err := decodeSlice(&d, []int64(*c), countsType, decodeCount)
	*c = v
	if err != nil {
		return err
	}
	return d.end()
}

// decodeSet decodes one element of an itemset list into *e.
func decodeSet(d *listDecoder, e *itemset.Itemset) error {
	v, err := decodeSlice(d, []itemset.Item(*e), setType, decodeItem)
	*e = v
	return err
}

// decodeItem decodes one item into *e; null leaves *e as it is.
func decodeItem(d *listDecoder, e *itemset.Item) error {
	if d.null() {
		return nil
	}
	v, err := d.integer(32, itemType)
	if err == nil {
		*e = itemset.Item(v)
	}
	return err
}

// decodeCount decodes one count into *e; null leaves *e as it is.
func decodeCount(d *listDecoder, e *int64) error {
	if d.null() {
		return nil
	}
	v, err := d.integer(64, countType)
	if err == nil {
		*e = v
	}
	return err
}

// decodeSlice decodes a JSON array or null into s and returns the result,
// as encoding/json decodes into a slice value: null yields nil; an array
// decodes element i into s[i] — the element already there while i is below
// len(s), the one the backing array holds while i is below cap(s), a zero
// value appended after that — then truncates s to the elements read, and
// an empty array yields a new empty slice. typ is the slice type a type
// error names.
func decodeSlice[E any](d *listDecoder, s []E, typ reflect.Type, elem func(*listDecoder, *E) error) ([]E, error) {
	if d.null() {
		return nil, nil
	}
	if d.peek() != '[' {
		return s, d.typeError(typ)
	}
	d.off++
	i := 0
	if d.peek() == ']' {
		d.off++
	} else {
		for {
			if i == cap(s) {
				var zero E
				s = append(s, zero)
			} else if i >= len(s) {
				s = s[:i+1]
			}
			if err := elem(d, &s[i]); err != nil {
				return s, err
			}
			i++
			c := d.peek()
			if c != ',' && c != ']' {
				return s, d.syntaxError()
			}
			d.off++
			if c == ']' {
				break
			}
		}
	}
	if i < len(s) {
		s = s[:i]
	}
	if i == 0 {
		s = make([]E, 0)
	}
	return s, nil
}

// listDecoder is a cursor over the JSON text of one list.
type listDecoder struct {
	data []byte
	off  int
}

// peek skips whitespace and returns the next byte, or 0 at the end (which
// a NUL byte in the text also reads as; end tells the two apart).
func (d *listDecoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// null consumes a null literal if one comes next.
func (d *listDecoder) null() bool {
	if d.peek() != 'n' || len(d.data)-d.off < 4 || string(d.data[d.off:d.off+4]) != "null" {
		return false
	}
	d.off += 4
	return true
}

// end checks that nothing but whitespace follows the list.
func (d *listDecoder) end() error {
	if d.peek(); d.off < len(d.data) {
		return d.syntaxError()
	}
	return nil
}

// integer consumes a JSON number and returns it when it is an integer
// literal that fits in a signed integer of the given bit size — the
// numbers encoding/json stores into an integer — and the type error it
// reports for any other value, naming typ.
func (d *listDecoder) integer(bits uint, typ reflect.Type) (int64, error) {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, d.typeError(typ)
	}
	start := d.off
	neg := d.off < len(d.data) && d.data[d.off] == '-'
	if neg {
		d.off++
	}
	digits := d.off
	var u uint64
	inRange := true
	for ; d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9'; d.off++ {
		digit := uint64(d.data[d.off] - '0')
		if u > (1<<63-digit)/10 {
			inRange = false
		} else {
			u = u*10 + digit
		}
	}
	switch n := d.off - digits; {
	case n == 0:
		return 0, d.syntaxError()
	case n > 1 && d.data[digits] == '0':
		return 0, d.syntaxError() // a leading zero
	}
	integral := true
	if d.off < len(d.data) && d.data[d.off] == '.' {
		integral = false
		d.off++
		if !d.digits() {
			return 0, d.syntaxError()
		}
	}
	if d.off < len(d.data) && (d.data[d.off] == 'e' || d.data[d.off] == 'E') {
		integral = false
		d.off++
		if d.off < len(d.data) && (d.data[d.off] == '+' || d.data[d.off] == '-') {
			d.off++
		}
		if !d.digits() {
			return 0, d.syntaxError()
		}
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	if !integral || !inRange || u > limit {
		return 0, &json.UnmarshalTypeError{Value: "number " + string(d.data[start:d.off]), Type: typ, Offset: int64(d.off)}
	}
	if neg {
		return -int64(u), nil
	}
	return int64(u), nil
}

// digits consumes a run of digits and reports whether there was one.
func (d *listDecoder) digits() bool {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off > start
}

// typeError reports the JSON value at the cursor as not of type typ, as
// encoding/json does for a list or an element of the wrong kind.
func (d *listDecoder) typeError(typ reflect.Type) error {
	var value string
	switch c := d.peek(); {
	case c == '"':
		value = "string"
	case c == 't' || c == 'f':
		value = "bool"
	case c == '{':
		value = "object"
	case c == '[':
		value = "array"
	case c == '-' || '0' <= c && c <= '9':
		value = "number"
	default:
		return d.syntaxError()
	}
	return &json.UnmarshalTypeError{Value: value, Type: typ, Offset: int64(d.off)}
}

func (d *listDecoder) syntaxError() error {
	return fmt.Errorf("cluster: malformed JSON list at offset %d", d.off)
}
