package schema

import (
	"fmt"
	"slices"
	"strings"
)

// Op enumerates constraint operators. The paper's notation maps as:
// prefix ">*", suffix "*<", containment "*"; Glob covers general patterns
// such as "m*t" and "N*SE" that SACS rows use for covering constraints.
type Op uint8

// Supported constraint operators.
const (
	OpInvalid  Op = iota
	OpEQ          // =
	OpNE          // !=
	OpLT          // <   (arithmetic only)
	OpLE          // <=  (arithmetic only)
	OpGT          // >   (arithmetic only)
	OpGE          // >=  (arithmetic only)
	OpPrefix      // >* (string only)
	OpSuffix      // *< (string only)
	OpContains    // *  (string only)
	OpGlob        // pattern with embedded '*' wildcards (string only)
)

// String returns the operator's source form.
func (op Op) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpPrefix:
		return ">*"
	case OpSuffix:
		return "*<"
	case OpContains:
		return "*"
	case OpGlob:
		return "~"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// ParseOp converts a source token to an operator.
func ParseOp(s string) (Op, error) {
	switch s {
	case "=", "==":
		return OpEQ, nil
	case "!=", "<>":
		return OpNE, nil
	case "<":
		return OpLT, nil
	case "<=":
		return OpLE, nil
	case ">":
		return OpGT, nil
	case ">=":
		return OpGE, nil
	case ">*":
		return OpPrefix, nil
	case "*<":
		return OpSuffix, nil
	case "*":
		return OpContains, nil
	case "~":
		return OpGlob, nil
	default:
		return OpInvalid, fmt.Errorf("schema: unknown operator %q", s)
	}
}

// ArithmeticOp reports whether op applies to arithmetic attributes.
func (op Op) ArithmeticOp() bool {
	switch op {
	case OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE:
		return true
	default:
		return false
	}
}

// StringOp reports whether op applies to string attributes.
func (op Op) StringOp() bool {
	switch op {
	case OpEQ, OpNE, OpPrefix, OpSuffix, OpContains, OpGlob:
		return true
	default:
		return false
	}
}

// Constraint is one attribute condition of a subscription.
type Constraint struct {
	Attr  AttrID
	Op    Op
	Value Value
}

// Validate checks the constraint against the schema: known attribute,
// operator compatible with the attribute type, value of the right type.
func (c Constraint) Validate(s *Schema) error {
	a, ok := s.Attr(c.Attr)
	if !ok {
		return fmt.Errorf("schema: constraint attribute id %d out of range", c.Attr)
	}
	if a.Type.Arithmetic() && !c.Op.ArithmeticOp() {
		return fmt.Errorf("schema: operator %s not valid for arithmetic attribute %q", c.Op, a.Name)
	}
	if a.Type == TypeString && !c.Op.StringOp() {
		return fmt.Errorf("schema: operator %s not valid for string attribute %q", c.Op, a.Name)
	}
	if err := checkValueType(s, c.Attr, c.Value); err != nil {
		return err
	}
	return checkStringLen(a.Name, c.Value)
}

// Satisfied reports whether the event value v satisfies the constraint.
// The caller guarantees v belongs to the constraint's attribute.
func (c Constraint) Satisfied(v Value) bool {
	if c.Value.Type == TypeString {
		if v.Type != TypeString {
			return false
		}
		return stringSatisfied(c.Op, c.Value.Str, v.Str)
	}
	if !v.Arithmetic() {
		return false
	}
	switch c.Op {
	case OpEQ:
		return v.Num == c.Value.Num
	case OpNE:
		return v.Num != c.Value.Num
	case OpLT:
		return v.Num < c.Value.Num
	case OpLE:
		return v.Num <= c.Value.Num
	case OpGT:
		return v.Num > c.Value.Num
	case OpGE:
		return v.Num >= c.Value.Num
	default:
		return false
	}
}

// stringSatisfied evaluates a string operator against an event value.
// Glob matching is delegated to GlobMatch (see glob.go).
func stringSatisfied(op Op, pattern, v string) bool {
	switch op {
	case OpEQ:
		return v == pattern
	case OpNE:
		return v != pattern
	case OpPrefix:
		return strings.HasPrefix(v, pattern)
	case OpSuffix:
		return strings.HasSuffix(v, pattern)
	case OpContains:
		return strings.Contains(v, pattern)
	case OpGlob:
		return GlobMatch(pattern, v)
	default:
		return false
	}
}

// WireSize returns the constraint's size in bytes under the paper's cost
// model: 2 bytes attribute id, 1 byte operator, plus the value payload.
func (c Constraint) WireSize() int { return 3 + c.Value.WireSize() }

// Format renders the constraint with schema names, e.g. `price < 8.7`.
func (c Constraint) Format(s *Schema) string {
	return fmt.Sprintf("%s %s %s", s.Name(c.Attr), c.Op, c.Value)
}

// Subscription is a conjunction of constraints (Section 2.1, Figure 3).
// A subscription may carry two or more constraints on the same attribute
// (e.g. price > 8.30 and price < 8.70). An event matches iff every
// constraint is satisfied by the event's value for that attribute; events
// missing a constrained attribute do not match.
type Subscription struct {
	Constraints []Constraint
}

// NewSubscription validates the constraints against the schema and returns
// the subscription. At least one constraint is required.
func NewSubscription(s *Schema, cs ...Constraint) (*Subscription, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("schema: subscription needs at least one constraint")
	}
	sub := &Subscription{Constraints: make([]Constraint, len(cs))}
	copy(sub.Constraints, cs)
	for _, c := range sub.Constraints {
		if err := c.Validate(s); err != nil {
			return nil, err
		}
	}
	return sub, nil
}

// Matches reports whether the event satisfies every constraint. This is the
// exact (non-summarized) matching relation; owning brokers use it to
// resolve summary pre-filter false positives before consumer delivery.
func (sub *Subscription) Matches(e *Event) bool {
	for _, c := range sub.Constraints {
		v, ok := e.Value(c.Attr)
		if !ok || !c.Satisfied(v) {
			return false
		}
	}
	return true
}

// AttrSet returns the set of distinct attribute ids constrained by the
// subscription, in ascending order. This is the information encoded into
// the c3 component of the subscription id.
func (sub *Subscription) AttrSet() []AttrID {
	out := make([]AttrID, len(sub.Constraints))
	for i, c := range sub.Constraints {
		out[i] = c.Attr
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// NumAttrs returns the number of distinct constrained attributes.
func (sub *Subscription) NumAttrs() int { return len(sub.AttrSet()) }

// WireSize returns the subscription's size in bytes under the paper's cost
// model (the sum of its constraints' sizes; the paper's average is 50).
func (sub *Subscription) WireSize() int {
	n := 0
	for _, c := range sub.Constraints {
		n += c.WireSize()
	}
	return n
}

// Format renders the subscription as ` && `-joined constraints.
func (sub *Subscription) Format(s *Schema) string {
	parts := make([]string, len(sub.Constraints))
	for i, c := range sub.Constraints {
		parts[i] = c.Format(s)
	}
	return strings.Join(parts, " && ")
}
