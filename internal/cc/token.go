// Package cc implements a mini-C frontend: a lexer, a recursive-descent
// parser, and a typed lowering pass producing MIR programs.
//
// The language is the C subset the paper's discussion revolves around:
// struct/union/class declarations (with single and multiple inheritance),
// pointers, arrays, flexible array members, globals, functions, the usual
// statements and expressions, explicit casts, malloc/free/realloc/new with
// the paper's "first lvalue usage" allocation-type inference, and
// memcpy/memset (the implicit-cast vectors of §2.1). Workloads, the
// error-injection corpus and the examples are written in it.
package cc

import (
	"fmt"
	"unicode"
)

// tokKind classifies tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokChar
	tokString
	tokPunct
)

type token struct {
	kind tokKind
	text string
	ival int64
	fval float64
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

var keywords = map[string]bool{
	"void": true, "bool": true, "char": true, "short": true, "int": true,
	"long": true, "float": true, "double": true, "signed": true,
	"unsigned": true, "struct": true, "union": true, "class": true,
	"public": true, "virtual": true, "if": true, "else": true,
	"while": true, "for": true, "return": true, "break": true,
	"continue": true, "sizeof": true, "new": true, "delete": true,
	"free": true, "malloc": true, "realloc": true, "memcpy": true,
	"memset": true, "print": true, "puts": true, "null": true,
	"legacy_malloc": true,
}

// typeStart reports whether a token can begin a type.
func typeStart(t token) bool {
	if t.kind != tokKeyword {
		return false
	}
	switch t.text {
	case "void", "bool", "char", "short", "int", "long", "float", "double",
		"signed", "unsigned", "struct", "union", "class":
		return true
	}
	return false
}

// twoCharPuncts are the multi-character operators, longest match first.
var twoCharPuncts = []string{
	"->", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=", "++", "--",
}

type lexError struct {
	line, col int
	msg       string
}

func (e lexError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.line, e.col, e.msg)
}

// lex tokenises src. Comments (// and /* */) are skipped.
func lex(src string) ([]token, error) {
	// About one token per four source bytes.
	toks := make([]token, 0, len(src)/4+16)
	line, col := 1, 1
	i := 0
	n := len(src)
	advance := func(k int) {
		for j := 0; j < k; j++ {
			if src[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
			i++
		}
	}
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				advance(1)
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			advance(2)
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				advance(1)
			}
			if i+1 >= n {
				return nil, lexError{line, col, "unterminated block comment"}
			}
			advance(2)
		case unicode.IsLetter(rune(c)) || c == '_':
			start, sl, sc := i, line, col
			for i < n && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				advance(1)
			}
			text := src[start:i]
			kind := tokIdent
			if keywords[text] {
				kind = tokKeyword
			}
			toks = append(toks, token{kind: kind, text: text, line: sl, col: sc})
		case unicode.IsDigit(rune(c)):
			start, sl, sc := i, line, col
			isFloat := false
			if c == '0' && i+1 < n && (src[i+1] == 'x' || src[i+1] == 'X') {
				advance(2)
				for i < n && isHexDigit(src[i]) {
					advance(1)
				}
			} else {
				for i < n && unicode.IsDigit(rune(src[i])) {
					advance(1)
				}
				if i < n && src[i] == '.' {
					isFloat = true
					advance(1)
					for i < n && unicode.IsDigit(rune(src[i])) {
						advance(1)
					}
				}
				if i < n && (src[i] == 'e' || src[i] == 'E') {
					isFloat = true
					advance(1)
					if i < n && (src[i] == '+' || src[i] == '-') {
						advance(1)
					}
					for i < n && unicode.IsDigit(rune(src[i])) {
						advance(1)
					}
				}
			}
			text := src[start:i]
			tok := token{text: text, line: sl, col: sc}
			if isFloat {
				tok.kind = tokFloat
				if _, err := fmt.Sscanf(text, "%g", &tok.fval); err != nil {
					return nil, lexError{sl, sc, "bad float literal " + text}
				}
			} else {
				tok.kind = tokInt
				var v int64
				if _, err := fmt.Sscanf(text, "%v", &v); err != nil {
					return nil, lexError{sl, sc, "bad integer literal " + text}
				}
				tok.ival = v
			}
			toks = append(toks, tok)
		case c == '\'':
			sl, sc := line, col
			advance(1)
			if i >= n {
				return nil, lexError{sl, sc, "unterminated char literal"}
			}
			var v int64
			if src[i] == '\\' {
				advance(1)
				if i >= n {
					return nil, lexError{sl, sc, "unterminated char literal"}
				}
				v = int64(unescape(src[i]))
				advance(1)
			} else {
				v = int64(src[i])
				advance(1)
			}
			if i >= n || src[i] != '\'' {
				return nil, lexError{sl, sc, "unterminated char literal"}
			}
			advance(1)
			toks = append(toks, token{kind: tokChar, ival: v, text: "'", line: sl, col: sc})
		case c == '"':
			sl, sc := line, col
			advance(1)
			var buf []byte
			for i < n && src[i] != '"' {
				if src[i] == '\\' && i+1 < n {
					advance(1)
					buf = append(buf, unescape(src[i]))
					advance(1)
					continue
				}
				buf = append(buf, src[i])
				advance(1)
			}
			if i >= n {
				return nil, lexError{sl, sc, "unterminated string literal"}
			}
			advance(1)
			toks = append(toks, token{kind: tokString, text: string(buf), line: sl, col: sc})
		default:
			sl, sc := line, col
			matched := false
			for _, p := range twoCharPuncts {
				if i+1 < n && src[i:i+2] == p {
					toks = append(toks, token{kind: tokPunct, text: p, line: sl, col: sc})
					advance(2)
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			switch c {
			case '+', '-', '*', '/', '%', '&', '|', '^', '!', '<', '>', '=',
				'(', ')', '{', '}', '[', ']', ';', ',', '.', ':', '~', '?':
				toks = append(toks, token{kind: tokPunct, text: string(c), line: sl, col: sc})
				advance(1)
			default:
				return nil, lexError{sl, sc, fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line, col: col})
	return toks, nil
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func unescape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	}
	return c
}
