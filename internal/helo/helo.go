// Package helo reimplements the Hierarchical Event Log Organizer the paper
// uses for preprocessing: it mines message templates (regular-expression
// like patterns with wildcard positions) from raw log messages and assigns
// every message a stable event-type id. The same code runs offline (mining
// on a training window) and online (matching the live stream, creating
// templates for genuinely new message shapes so the template set follows
// software upgrades).
//
// A log repeats a few hundred message shapes millions of times, so Learn
// keeps a memo from the normalised message to the template it merged
// into and clusters only shapes it has not seen since the template set
// last changed; see Organizer.memo for why the answer is exact. The
// Organizer owns its templates: Restore copies what it is given and
// Templates returns copies, so callers never share a pattern with a
// running Learn.
package helo

import (
	"fmt"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// Wildcard is the token standing for a variable position in a template.
const Wildcard = "*"

// NumToken replaces purely numeric tokens during normalisation, matching
// the "d+" convention in the paper's template listings.
const NumToken = "d+"

// Template is one mined event type: a token pattern where constant
// positions carry the literal token and variable positions carry Wildcard.
type Template struct {
	ID          int
	Tokens      []string
	Support     int           // messages matched so far
	MaxSeverity logs.Severity // highest severity seen on matching records
}

// String renders the template pattern.
func (t *Template) String() string { return strings.Join(t.Tokens, " ") }

// Matches reports whether the token sequence fits the template (same
// length, all constant positions equal).
func (t *Template) Matches(tokens []string) bool {
	if len(tokens) != len(t.Tokens) {
		return false
	}
	for i, tok := range t.Tokens {
		if tok != Wildcard && tok != tokens[i] {
			return false
		}
	}
	return true
}

// similarity scores how well a token sequence fits the template: exact
// constant matches count fully, wildcard positions count half — they are
// compatible but confirm nothing, so a template cannot degenerate into an
// all-wildcard pattern that absorbs every same-length message.
func (t *Template) similarity(tokens []string) float64 {
	if len(tokens) != len(t.Tokens) {
		return 0
	}
	if len(tokens) == 0 {
		return 1 // two empty messages are the same event type
	}
	same := 0.0
	for i, tok := range t.Tokens {
		switch {
		// Exact equality first: a literal "*" in a message must match a
		// template position holding "*" fully, not as a half-credit
		// wildcard.
		case tok == tokens[i]:
			same++
		case tok == Wildcard:
			same += 0.5
		}
	}
	return same / float64(len(tokens))
}

// absorb merges a token sequence into the template, wildcarding every
// position that disagrees, and reports whether the pattern changed.
func (t *Template) absorb(tokens []string) bool {
	changed := false
	for i, tok := range t.Tokens {
		if tok != Wildcard && tok != tokens[i] {
			t.Tokens[i] = Wildcard
			changed = true
		}
	}
	return changed
}

// note counts one more matching record of the given severity.
func (t *Template) note(sev logs.Severity) {
	t.Support++
	if sev > t.MaxSeverity {
		t.MaxSeverity = sev
	}
}

// clone returns a copy that shares nothing with t.
func (t *Template) clone() *Template {
	c := *t
	c.Tokens = append([]string(nil), t.Tokens...)
	return &c
}

// Tokenize normalises a raw message into tokens: lower-cased, whitespace
// split, with purely numeric and hex-literal tokens replaced by NumToken so
// that ids, counters and addresses do not explode the template space.
// Key:value tokens with numeric values ("lr:0x01a") keep their key and
// normalise the value ("lr:d+"), following HELO's handling of register
// dumps and structured fields.
func Tokenize(msg string) []string {
	// A one-byte numeric token grows to the two-byte NumToken, so the key
	// of an n-byte message is at most n + n/2 + 1 bytes.
	buf := make([]byte, len(msg)+len(msg)/2+1)
	if n, ok := normalise(buf, msg); ok {
		return splitKey(string(buf[:n]))
	}
	// A byte >= 0x80: strings.ToLower and strings.Fields fold and split by
	// Unicode rules (İ lower-cases to two runes, NBSP separates tokens),
	// which a byte pass cannot reproduce. The only strings path left.
	fields := strings.Fields(strings.ToLower(msg))
	for i, f := range fields {
		if isNumericString(f) {
			fields[i] = NumToken
			continue
		}
		if k := strings.IndexByte(f, ':'); k > 0 && k < len(f)-1 && isNumericString(f[k+1:]) {
			fields[i] = f[:k+1] + NumToken
		}
	}
	return fields
}

// splitKey cuts a normalised key back into its tokens.
func splitKey(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, " ")
}

// normalise writes msg's template key into dst — the message's tokens as
// Tokenize defines them, joined by single spaces — in one pass over the
// bytes, and returns the key's length. It reports false, with dst's
// contents undefined, when msg holds a byte >= 0x80 or the key outgrows
// dst.
//
//elsa:hotpath
func normalise(dst []byte, msg string) (n int, ok bool) {
	for i := 0; i < len(msg); i++ {
		if isSpace(msg[i]) {
			continue
		}
		if n > 0 {
			if n == len(dst) {
				return 0, false
			}
			dst[n] = ' '
			n++
		}
		start, colon := n, -1
		for ; i < len(msg) && !isSpace(msg[i]); i++ {
			c := msg[i]
			if c >= utf8.RuneSelf || n == len(dst) {
				return 0, false
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c == ':' && colon < 0 {
				colon = n
			}
			dst[n] = c
			n++
		}
		switch {
		case isNumeric(dst[start:n]):
			n = start
		case colon > start && colon < n-1 && isNumeric(dst[colon+1:n]):
			n = colon + 1
		default:
			continue
		}
		if n+len(NumToken) > len(dst) {
			return 0, false
		}
		dst[n], dst[n+1] = NumToken[0], NumToken[1]
		n += len(NumToken)
	}
	return n, true
}

// isSpace reports ASCII white space: \t, \n, \v, \f, \r and the space.
func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// isNumeric reports whether a lower-cased ASCII token is a number, a
// range, an address or a hex literal.
func isNumeric(s []byte) bool {
	if len(s) > 2 && s[0] == '0' && s[1] == 'x' {
		for _, c := range s[2:] {
			if !isHexDigit(c) && c != '.' && c != ',' && c != ':' && c != '-' {
				return false
			}
		}
		return true
	}
	digits := 0
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
			digits++
		case c == '.' || c == ',' || c == ':' || c == '-' || c == '+':
			// separators inside numbers and ranges
		default:
			return false
		}
	}
	return digits > 0
}

// isNumericString is isNumeric for the tokens of a message with a byte
// >= 0x80; on ASCII the two agree (FuzzNormalise). It stays a function of
// its own because its hex loop ranges over runes and truncates them
// ("0xı" counts as hex), and the event ids of existing models depend on
// what it has always answered.
func isNumericString(s string) bool {
	if strings.HasPrefix(s, "0x") && len(s) > 2 {
		for _, c := range s[2:] {
			if !isHexDigit(byte(c)) && !strings.ContainsRune(".,:-", c) {
				return false
			}
		}
		return true
	}
	digits := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			digits++
		case c == '.' || c == ',' || c == ':' || c == '-' || c == '+':
			// separators inside numbers and ranges
		default:
			return false
		}
	}
	return digits > 0
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f'
}

// Organizer mines and matches templates. It is safe for concurrent use,
// and it owns its patterns outright: Restore and Templates copy.
type Organizer struct {
	mu        sync.RWMutex
	threshold float64
	groups    map[int][]*Template // indexed by token count
	all       []*Template         // all[id].ID == id

	// memo maps a normalised message (its template key) to the template
	// Learn merged it into, so a repeated shape is one map lookup instead
	// of a scan of its length group. The answer is exact: bestLocked is a
	// pure function of the tokens, the patterns of the same-length group
	// and the threshold, and patterns change only when absorb wildcards a
	// position or a template is appended — both clear the memo. An entry
	// is recorded after absorb, when the winner's similarity can only
	// have risen and every rival's is unchanged, so the winner is still
	// the earliest maximum and absorbing the same tokens again is a
	// no-op. Nothing is recorded when a template is created, so an
	// organizer whose threshold no message reaches keeps an empty memo.
	// It is derived state: never serialised, cold after Restore.
	memo map[string]*Template
	// scratch holds the key being looked up. Its size also bounds the
	// memo's key bytes: a longer key (MaxMessageLen admits a 1 MiB
	// message) takes the allocating path and is never recorded.
	scratch [maxMemoKey]byte
}

// The memo's two bounds. A full memo is cleared and refilled, which is
// deterministic and changes no result.
const (
	maxMemoKey     = 512
	maxMemoEntries = 4096
)

// DefaultThreshold is the similarity required to merge a message into an
// existing template instead of opening a new one.
const DefaultThreshold = 0.6

// New returns an empty Organizer. A non-positive threshold selects
// DefaultThreshold.
func New(threshold float64) *Organizer {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Organizer{
		threshold: threshold,
		groups:    make(map[int][]*Template),
		memo:      make(map[string]*Template),
	}
}

// Restore rebuilds an Organizer from previously mined templates (loaded
// from a serialised model). The templates are copied: the caller's stay
// the caller's. Template ids must be dense and start at 0; Restore panics
// otherwise, since matching relies on id = slice index.
func Restore(threshold float64, templates []*Template) *Organizer {
	o := New(threshold)
	o.all = make([]*Template, len(templates))
	for _, t := range templates {
		if t.ID < 0 || t.ID >= len(templates) || o.all[t.ID] != nil {
			panic(fmt.Sprintf("helo: template ids not dense (id %d of %d)", t.ID, len(templates)))
		}
		t = t.clone()
		o.all[t.ID] = t
		o.groups[len(t.Tokens)] = append(o.groups[len(t.Tokens)], t)
	}
	return o
}

// Threshold returns the merge-similarity threshold.
func (o *Organizer) Threshold() float64 { return o.threshold }

// Learn matches msg against the template set, merging it into the most
// similar template above the threshold or creating a new one, and returns
// the template. Severity tracks the worst level seen for the event type.
// The returned Template is the organizer's own: read its ID, and its
// other fields only when no other goroutine is learning.
//
//elsa:hotpath
func (o *Organizer) Learn(msg string, sev logs.Severity) *Template {
	o.mu.Lock()
	defer o.mu.Unlock()
	n, ok := normalise(o.scratch[:], msg)
	if ok {
		if t := o.memo[string(o.scratch[:n])]; t != nil { //nolint:elsahotpath // a map index by string(b) does not copy
			t.note(sev)
			return t
		}
	}
	return o.learnMiss(msg, n, ok, sev)
}

// learnMiss is Learn past the memo: the scan of the length group. keyed
// says scratch[:n] holds msg's key.
func (o *Organizer) learnMiss(msg string, n int, keyed bool, sev logs.Severity) *Template {
	var key string
	var tokens []string
	if keyed {
		key = string(o.scratch[:n])
		tokens = splitKey(key)
	} else {
		tokens = Tokenize(msg)
	}
	if best := o.bestLocked(tokens); best != nil {
		if best.absorb(tokens) {
			clear(o.memo)
		}
		best.note(sev)
		if keyed {
			if len(o.memo) >= maxMemoEntries {
				clear(o.memo)
			}
			o.memo[key] = best
		}
		return best
	}
	t := &Template{
		ID:          len(o.all),
		Tokens:      append([]string(nil), tokens...),
		Support:     1,
		MaxSeverity: sev,
	}
	o.all = append(o.all, t)
	o.groups[len(tokens)] = append(o.groups[len(tokens)], t)
	clear(o.memo)
	return t
}

// bestLocked returns the most similar template above the threshold, or nil.
func (o *Organizer) bestLocked(tokens []string) *Template {
	var best *Template
	bestSim := o.threshold
	for _, t := range o.groups[len(tokens)] {
		if sim := t.similarity(tokens); sim >= bestSim {
			// Strict improvement keeps the earliest template on ties, so
			// ids are stable across replays.
			if best == nil || sim > bestSim {
				best, bestSim = t, sim
			}
		}
	}
	return best
}

// Match returns the template msg belongs to without mutating the set.
func (o *Organizer) Match(msg string) (*Template, bool) {
	tokens := Tokenize(msg)
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, t := range o.groups[len(tokens)] {
		if t.Matches(tokens) {
			return t, true
		}
	}
	if best := o.bestLocked(tokens); best != nil {
		return best, true
	}
	return nil, false
}

// Templates returns copies of the mined templates, ordered by id: a
// snapshot the caller may hold, marshal or edit while Learn runs.
func (o *Organizer) Templates() []*Template {
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make([]*Template, len(o.all))
	for i, t := range o.all {
		out[i] = t.clone()
	}
	return out
}

// Pattern returns the pattern text of the template with the given id.
func (o *Organizer) Pattern(id int) (string, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if id < 0 || id >= len(o.all) {
		return "", false
	}
	return o.all[id].String(), true
}

// Len returns the number of templates mined so far.
func (o *Organizer) Len() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.all)
}

// Assign runs Learn over every record and stamps EventID in place,
// returning the organizer's final template count.
func (o *Organizer) Assign(recs []logs.Record) int {
	for i := range recs {
		t := o.Learn(recs[i].Message, recs[i].Severity)
		recs[i].EventID = t.ID
	}
	return o.Len()
}
