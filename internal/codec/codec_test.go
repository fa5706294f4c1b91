package codec

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAppendFloatMatchesMarshal compares AppendFloat with json.Marshal on
// the boundaries of encoding/json's float format and on random bit
// patterns.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e20, 1e21, -1e21, 1e-6, 9.99999e-7, 1e-7, 5e-324,
		math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456789.125, 1e100, 3e-9, math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		floats = append(floats, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range floats {
		want, wantErr := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendFloat(%v) error %v, json.Marshal %v", f, err, wantErr)
		}
		if err == nil && string(got[1:]) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s, json.Marshal writes %s", f, got[1:], want)
		}
	}
}

// TestNumbersMatchUnmarshal pins the number scanners to encoding/json: a
// number the fast path reads, json.Unmarshal reads to the same value, and
// one json.Unmarshal refuses, the fast path gives up on.
func TestNumbersMatchUnmarshal(t *testing.T) {
	read := 0
	for _, in := range []string{"0", "-0", "7", "255", "256", "-1", "1.0", "1e2", "1E+2", "01", "-", "1.", ".5", "1e", "+1",
		"4294967295", "4294967296", "18446744073709551615", "18446744073709551616",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"1e400", "-1e400", "1e-400", "0.1", "2.5e-7", " 12 ", "1 2", "true", "null", `"1"`} {
		check := func(name string, scan func(*Scanner) any, target any) {
			s := NewScanner([]byte(in))
			got := scan(&s)
			if !s.End() {
				return // the fast path gave up: encoding/json decides
			}
			read++
			if err := json.Unmarshal([]byte(in), target); err != nil || got != deref(target) {
				t.Errorf("%s(%q) = %v; json.Unmarshal gives %v, %v", name, in, got, deref(target), err)
			}
		}
		check("Uint(8)", func(s *Scanner) any { return uint8(s.Uint(8)) }, new(uint8))
		check("Uint(32)", func(s *Scanner) any { return uint32(s.Uint(32)) }, new(uint32))
		check("Uint(64)", func(s *Scanner) any { return s.Uint(64) }, new(uint64))
		check("Int(64)", func(s *Scanner) any { return s.Int(64) }, new(int64))
		check("Float", func(s *Scanner) any { return s.Float() }, new(float64))
		check("Bool", func(s *Scanner) any { return s.Bool() }, new(bool))
	}
	if read < 30 {
		t.Errorf("the fast path read only %d of the inputs", read)
	}
}

func deref(p any) any {
	switch p := p.(type) {
	case *uint8:
		return *p
	case *uint32:
		return *p
	case *uint64:
		return *p
	case *int64:
		return *p
	case *float64:
		return *p
	case *bool:
		return *p
	}
	panic("unsupported target")
}
