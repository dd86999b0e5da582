package model

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
)

// The JSON wire format of a declarative model. It covers everything a
// Model can declare — variable families, a Minimize/Maximize objective
// with constant/linear/quadratic/higher-order monomials, named LE/EQ/GE
// constraints (polynomial equalities included), and the density hint — so
// every model form round-trips losslessly: unconstrained, constrained,
// and high-order models all compile identically before and after a
// marshal/unmarshal cycle.
//
// MarshalJSON always emits canonical terms (merged monomials, linear by
// variable id, quadratic by (i, j), higher-order in declaration order),
// which makes the encoding deterministic: two equal models — however
// their expressions were built up — serialize to identical bytes. That
// determinism is what Fingerprint keys on, and what lets a solve service
// deduplicate identical submissions.
//
// The structs below define the format through their JSON tags, but the
// codec does not go through encoding/json's reflection: wireWriter
// writes exactly the bytes json.Marshal writes for the wireModel, and
// wireDecoder fills a wireModel exactly as json.Unmarshal would, from
// exactly the documents json.Unmarshal accepts (see wire.go).
type wireModel struct {
	Families    []wireFamily     `json:"families"`
	Maximize    bool             `json:"maximize,omitempty"`
	Objective   wireExpr         `json:"objective"`
	Constraints []wireConstraint `json:"constraints,omitempty"`
	Density     float64          `json:"density,omitempty"`
}

type wireFamily struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

// wireExpr carries an expression's canonical terms. Variable references
// are global ids — positions in the compiled assignment vector, i.e.
// declaration order across families.
type wireExpr struct {
	Const float64    `json:"const,omitempty"`
	Lin   []wireLin  `json:"lin,omitempty"`
	Quad  []wireQuad `json:"quad,omitempty"`
	Poly  []wirePoly `json:"poly,omitempty"`
}

type wireLin struct {
	V int     `json:"v"`
	W float64 `json:"w"`
}

type wireQuad struct {
	I int     `json:"i"`
	J int     `json:"j"`
	W float64 `json:"w"`
}

type wirePoly struct {
	Vars []int   `json:"vars"`
	W    float64 `json:"w"`
}

type wireConstraint struct {
	Name  string   `json:"name"`
	Sense string   `json:"sense"` // "<=", "==", ">="
	Expr  wireExpr `json:"expr"`
	Bound float64  `json:"bound"`
}

// exprFromWire validates and rebuilds an expression over a model with n
// declared variables.
func exprFromWire(m *Model, w wireExpr, n int, where string) (Expr, error) {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	checkID := func(id int) error {
		if id < 0 || id >= n {
			return fmt.Errorf("model: %s references variable %d of %d", where, id, n)
		}
		return nil
	}
	if !finite(w.Const) {
		return Expr{}, fmt.Errorf("model: %s has a non-finite constant", where)
	}
	e := Expr{m: m, c: w.Const}
	if len(w.Lin) > 0 {
		e.lin = make([]linTerm, 0, len(w.Lin))
	}
	for _, t := range w.Lin {
		if err := checkID(t.V); err != nil {
			return Expr{}, err
		}
		if !finite(t.W) {
			return Expr{}, fmt.Errorf("model: %s has a non-finite coefficient", where)
		}
		e.lin = append(e.lin, linTerm{v: t.V, w: t.W})
	}
	if len(w.Quad) > 0 {
		e.quad = make([]quadTerm, 0, len(w.Quad))
	}
	for _, t := range w.Quad {
		if err := checkID(t.I); err != nil {
			return Expr{}, err
		}
		if err := checkID(t.J); err != nil {
			return Expr{}, err
		}
		if t.I == t.J {
			return Expr{}, fmt.Errorf("model: %s has a quadratic term with equal indices %d", where, t.I)
		}
		if !finite(t.W) {
			return Expr{}, fmt.Errorf("model: %s has a non-finite coefficient", where)
		}
		i, j := t.I, t.J
		if i > j {
			i, j = j, i
		}
		e.quad = append(e.quad, quadTerm{i: i, j: j, w: t.W})
	}
	for _, t := range w.Poly {
		if len(t.Vars) < 3 {
			return Expr{}, fmt.Errorf("model: %s has a higher-order term of degree %d (need ≥ 3)", where, len(t.Vars))
		}
		seen := make(map[int]struct{}, len(t.Vars))
		for _, id := range t.Vars {
			if err := checkID(id); err != nil {
				return Expr{}, err
			}
			if _, dup := seen[id]; dup {
				return Expr{}, fmt.Errorf("model: %s has a higher-order term with duplicate variable %d", where, id)
			}
			seen[id] = struct{}{}
		}
		if !finite(t.W) {
			return Expr{}, fmt.Errorf("model: %s has a non-finite coefficient", where)
		}
		e.poly = append(e.poly, polyTerm{vars: append([]int(nil), t.Vars...), w: t.W})
	}
	return e, nil
}

// MarshalJSON encodes the model in the canonical wire format. It fails on
// a model with accumulated construction errors or no objective, and on a
// non-finite value (a bound, or weights that sum past the float range).
func (m *Model) MarshalJSON() ([]byte, error) {
	if err := m.Err(); err != nil {
		return nil, err
	}
	if m.vars == 0 {
		return nil, fmt.Errorf("model: cannot encode a model with no variables")
	}
	if !m.objSet {
		return nil, fmt.Errorf("model: cannot encode a model with no objective")
	}
	w := wireWriter{b: make([]byte, 0, m.wireSize())}
	w.model(m)
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// MaxWireVariables caps the total variable count a wire model may
// declare. A family header is a few bytes but allocates O(n) handles, so
// an uncapped count would let a ~90-byte request force a multi-gigabyte
// allocation (the JSON analogue of the qubofile memory-bomb header). The
// cap matches qubofile.MaxSparseReadNodes: one million variables, past
// every instance the solve pipeline can usefully hold.
const MaxWireVariables = 1 << 20

// UnmarshalJSON decodes the wire format into the receiver, replacing any
// prior state. Decoded models are fully validated — family names and
// sizes (total capped at MaxWireVariables, before anything is
// allocated), variable ids, senses, finite coefficients — and compile
// exactly like the model that was marshalled.
func (m *Model) UnmarshalJSON(data []byte) error {
	var w wireModel
	if err := decodeWire(data, &w); err != nil {
		return err
	}
	fresh, err := fromWire(&w)
	if err != nil {
		return err
	}
	*m = *fresh
	return nil
}

// fromWire validates a decoded wire model and builds the model it
// declares.
func fromWire(w *wireModel) (*Model, error) {
	if len(w.Families) == 0 {
		return nil, fmt.Errorf("model: wire model declares no variable families")
	}
	total := 0
	for _, f := range w.Families {
		if f.N <= 0 {
			return nil, fmt.Errorf("model: wire family %q declares %d variables", f.Name, f.N)
		}
		total += f.N
		if total > MaxWireVariables {
			return nil, fmt.Errorf("model: wire model declares over %d variables", MaxWireVariables)
		}
	}
	fresh := New()
	for _, f := range w.Families {
		fresh.Binary(f.Name, f.N)
	}
	if err := fresh.Err(); err != nil {
		return nil, err
	}
	obj, err := exprFromWire(fresh, w.Objective, fresh.vars, "objective")
	if err != nil {
		return nil, err
	}
	if w.Maximize {
		fresh.Maximize(obj)
	} else {
		fresh.Minimize(obj)
	}
	for _, c := range w.Constraints {
		var sense Sense
		switch c.Sense {
		case LE.String():
			sense = LE
		case EQ.String():
			sense = EQ
		case GE.String():
			sense = GE
		default:
			return nil, fmt.Errorf("model: constraint %q has unknown sense %q", c.Name, c.Sense)
		}
		if math.IsNaN(c.Bound) || math.IsInf(c.Bound, 0) {
			return nil, fmt.Errorf("model: constraint %q has a non-finite bound", c.Name)
		}
		expr, err := exprFromWire(fresh, c.Expr, fresh.vars, fmt.Sprintf("constraint %q", c.Name))
		if err != nil {
			return nil, err
		}
		fresh.Constrain(c.Name, Constraint{expr: expr, sense: sense, bound: c.Bound})
	}
	if w.Density != 0 {
		fresh.Density(w.Density)
	}
	if err := fresh.Err(); err != nil {
		return nil, err
	}
	return fresh, nil
}

// Fingerprint returns a hash-stable hex digest of the model's canonical
// wire encoding. Two models fingerprint identically exactly when their
// declarations are equivalent — same families, objective, constraints,
// sense, and density — regardless of how their expressions were built up
// (term order, incremental Adds, duplicate monomials). A solve service
// combines this with saim.OptionsFingerprint to deduplicate identical
// submissions.
func (m *Model) Fingerprint() (string, error) {
	data, err := m.MarshalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
