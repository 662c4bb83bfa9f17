package serve

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"
)

// The front's JSON answers are appended straight from the ranked columns
// into the answer's pooled buffer, not reflected out of result structs.
// RecommendResponse, BatchResponse and BatchResult stay the documented
// shape and the type clients decode into, and every byte appended here is
// what a json.Encoder with SetEscapeHTML(false) writes for them: their key
// order, their omitempty decisions, encoding/json's number and string
// rules, the trailing newline. The identity tests (answerjson_test.go)
// hold the appender to the encoder.

// appendRecommend appends a's one-user answer as the RecommendResponse of
// user. A recommend's items are always present: an empty list is [].
func (a *Answer) appendRecommend(dst []byte, user int) ([]byte, error) {
	if err := a.finiteScores(); err != nil {
		return dst, err
	}
	sl := &a.Slots[0]
	version := a.ModelVersion
	if sl.arm != nil {
		version = sl.armVersion
	}
	dst = append(dst, `{"user":`...)
	dst = strconv.AppendInt(dst, int64(user), 10)
	dst = append(dst, `,"items":`...)
	dst = a.appendItems(dst, 0, int(a.Cols.Counts[0]))
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, a.Cols.Cached[0])
	dst = appendUintField(dst, `,"model_version":`, version)
	dst = appendUintField(dst, `,"route_epoch":`, a.RouteEpoch)
	if sl.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if arm := sl.arm; arm != nil {
		dst = appendStringField(dst, `,"tenant":`, arm.tenant)
		dst = appendStringField(dst, `,"experiment":`, arm.expName)
		dst = appendStringField(dst, `,"arm":`, arm.name)
		dst = appendStringField(dst, `,"model":`, arm.model.name)
	}
	return append(dst, "}\n"...), nil
}

// appendBatch appends a's answer as the BatchResponse of users, one
// BatchResult per user in order. A served user's items and cached bit
// appear only when set; a failed user carries its error instead (omitted
// when the message is empty), and a tenant-routed user its arm, with the
// arm's model version only when served.
func (a *Answer) appendBatch(dst []byte, users []int) ([]byte, error) {
	if err := a.finiteScores(); err != nil {
		return dst, err
	}
	dst = append(dst, `{"results":[`...)
	off := 0
	for i, u := range users {
		sl, n := &a.Slots[i], int(a.Cols.Counts[i])
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"user":`...)
		dst = strconv.AppendInt(dst, int64(u), 10)
		if sl.Err == nil && n > 0 {
			dst = append(dst, `,"items":`...)
			dst = a.appendItems(dst, off, n)
		}
		if sl.Err == nil && a.Cols.Cached[i] {
			dst = append(dst, `,"cached":true`...)
		}
		if sl.Degraded {
			dst = append(dst, `,"degraded":true`...)
		}
		if sl.Err != nil {
			dst = appendStringField(dst, `,"error":`, sl.Err.Error())
		}
		if sl.arm != nil {
			dst = appendStringField(dst, `,"arm":`, sl.arm.name)
			if sl.Err == nil {
				dst = appendUintField(dst, `,"arm_model_version":`, sl.armVersion)
			}
		}
		dst = append(dst, '}')
		off += n
	}
	dst = append(dst, ']')
	dst = appendUintField(dst, `,"model_version":`, a.ModelVersion)
	dst = appendUintField(dst, `,"route_epoch":`, a.RouteEpoch)
	return append(dst, "}\n"...), nil
}

// reply answers the JSON body appended into out, keeping out as a's buffer
// for the next request — or, when a score could not be encoded, the 500
// WriteJSON answers such a failure with.
func (a *Answer) reply(w http.ResponseWriter, out []byte, err error) int {
	a.out = out
	if err != nil {
		return WriteError(w, http.StatusInternalServerError, err.Error())
	}
	return writeJSONBody(w, http.StatusOK, out)
}

// finiteScores refuses an answer holding a score encoding/json cannot
// write, with the error encoding/json refuses it with.
func (a *Answer) finiteScores() error {
	for _, s := range a.Cols.Scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return errors.New("json: unsupported value: " + strconv.FormatFloat(s, 'g', -1, 64))
		}
	}
	return nil
}

// appendItems appends the n items from off of a's columns as a
// []ScoredItem.
func (a *Answer) appendItems(dst []byte, off, n int) []byte {
	dst = append(dst, '[')
	for j := off; j < off+n; j++ {
		if j > off {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"item":`...)
		dst = strconv.AppendUint(dst, uint64(a.Cols.Items[j]), 10)
		dst = append(dst, `,"score":`...)
		dst = appendFloat(dst, a.Cols.Scores[j])
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendUintField appends key and v, an omitempty integer: nothing for 0.
func appendUintField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

// appendStringField appends key and s, an omitempty string: nothing for "".
func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest representation, in 'e' notation below 1e-6 and from 1e21 on
// with the exponent's leading zero dropped (e-07 as e-7), 'f' otherwise.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json writes a string with HTML
// escaping off: '"' and '\\' backslashed, \b \f \n \r \t as such, every
// other control byte, each byte of invalid UTF-8 (as U+FFFD), U+2028 and
// U+2029 as a \u escape, and everything else as it is.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := utf8.DecodeRuneInString(s[i:])
		if c >= 0x20 && c != '"' && c != '\\' && c != 0x2028 && c != 0x2029 && (c != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', byte(c))
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', hexDigits[c>>12], hexDigits[c>>8&0xF], hexDigits[c>>4&0xF], hexDigits[c&0xF])
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
