package helo

import (
	"strings"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// The frozen reference of template assignment: Tokenize and Learn as they
// stood before Learn kept a memo — strings.ToLower/strings.Fields, then a
// similarity scan of the whole length group for every message. Nothing
// outside the tests uses it; the differential test and
// FuzzLearnMatchesFrozen hold the organizer to it message by message, and
// FuzzNormalise holds the byte-level normaliser to frozenTokenize.
// Template and its similarity are shared with the live code: the memo
// changed neither.

func frozenTokenize(msg string) []string {
	fields := strings.Fields(strings.ToLower(msg))
	for i, f := range fields {
		if frozenIsNumeric(f) {
			fields[i] = NumToken
			continue
		}
		if k := strings.IndexByte(f, ':'); k > 0 && k < len(f)-1 && frozenIsNumeric(f[k+1:]) {
			fields[i] = f[:k+1] + NumToken
		}
	}
	return fields
}

func frozenIsNumeric(s string) bool {
	if s == "" {
		return false
	}
	body := s
	if strings.HasPrefix(body, "0x") && len(body) > 2 {
		for _, c := range body[2:] {
			if !frozenIsHexDigit(byte(c)) && !strings.ContainsRune(".,:-", c) {
				return false
			}
		}
		return true
	}
	digits := 0
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case c >= '0' && c <= '9':
			digits++
		case c == '.' || c == ',' || c == ':' || c == '-' || c == '+':
		default:
			return false
		}
	}
	return digits > 0
}

func frozenIsHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f'
}

// frozenOrganizer is the organizer's Learn path without the lock (the
// tests drive it from one goroutine).
type frozenOrganizer struct {
	threshold float64
	groups    map[int][]*Template
	all       []*Template
}

func newFrozen(threshold float64) *frozenOrganizer {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &frozenOrganizer{threshold: threshold, groups: make(map[int][]*Template)}
}

// restoreFrozen copies the templates in, as Restore does.
func restoreFrozen(threshold float64, templates []*Template) *frozenOrganizer {
	o := newFrozen(threshold)
	o.all = make([]*Template, len(templates))
	for _, t := range templates {
		t = t.clone()
		o.all[t.ID] = t
		o.groups[len(t.Tokens)] = append(o.groups[len(t.Tokens)], t)
	}
	return o
}

func (o *frozenOrganizer) learn(msg string, sev logs.Severity) *Template {
	tokens := frozenTokenize(msg)
	if best := o.best(tokens); best != nil {
		for i, tok := range best.Tokens {
			if tok != Wildcard && tok != tokens[i] {
				best.Tokens[i] = Wildcard
			}
		}
		best.Support++
		if sev > best.MaxSeverity {
			best.MaxSeverity = sev
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
	return t
}

func (o *frozenOrganizer) best(tokens []string) *Template {
	var best *Template
	bestSim := o.threshold
	for _, t := range o.groups[len(tokens)] {
		if sim := t.similarity(tokens); sim >= bestSim {
			if best == nil || sim > bestSim {
				best, bestSim = t, sim
			}
		}
	}
	return best
}
