// Package captcha implements the challenge web service of the CR product.
//
// When the dispatcher decides to challenge a message, it creates a
// Challenge here and embeds its URL in the challenge email. The sender
// proves legitimacy by opening the URL (a *visit*, tracked because the
// paper reports that 94% of delivered challenge URLs were never opened)
// and solving a CAPTCHA (tracked per attempt — Figure 4(b) reports the
// attempts histogram and notes that no solve ever took more than five
// tries, evidence that nobody was attacking the CAPTCHAs automatically).
//
// The CAPTCHA itself is a simple obfuscated-arithmetic puzzle: what
// matters for the measurement reproduction is the bookkeeping (visits,
// attempts, solve timestamps, expiry), not the pixel-level hardness.
package captcha

import (
	"errors"
	"fmt"
	"html/template"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
)

// Service errors.
var (
	// errUnknownToken is returned for a token that does not exist.
	errUnknownToken = errors.New("captcha: unknown challenge token")
	// errExpired is returned when the challenge's quarantine window ended.
	errExpired = errors.New("captcha: challenge expired")
	// errAlreadySolved is returned on a second solve of the same token.
	errAlreadySolved = errors.New("captcha: challenge already solved")
	// errWrongAnswer is returned for an incorrect CAPTCHA answer.
	errWrongAnswer = errors.New("captcha: wrong answer")
	// errLocked is returned once a challenge used up its maxAttempts.
	errLocked = errors.New("captcha: too many failed attempts")
)

// maxAttempts locks a challenge after this many answer submissions. The
// paper never observed more than five attempts on a solve (Fig. 4(b)) —
// evidence nobody brute-forced the CAPTCHAs — and the lock is the
// corresponding defence if someone tried: every answer lies in 11..107,
// so without it 97 blind guesses solve any challenge. Locked challenges
// stay quarantined and can still be rescued from the digest.
const maxAttempts = 5

// Challenge is the server-side state of one outstanding challenge. It
// keeps only what no other record holds: the puzzle is two operands, its
// question and answer are formatted from them when asked for, and the
// expiry is created plus the service's TTL. Its times are Unix
// nanoseconds, which packs it into 128 bytes.
type Challenge struct {
	// Token is the unguessable identifier embedded in the challenge URL.
	Token string
	// MsgID is the quarantined message this challenge guards.
	MsgID string
	// Recipient is the protected user the message was addressed to.
	Recipient mail.Address
	// Sender is the (possibly spoofed) envelope sender the challenge
	// email was sent to.
	Sender mail.Address
	// created is when the dispatcher issued the challenge.
	created int64
	// solvedAt is the solve time; 0 while unsolved.
	solvedAt int64

	// visits counts GETs of the challenge URL.
	visits int32
	// Attempts counts answer submissions (right or wrong).
	Attempts int32

	// a and b are the puzzle's operands: the question asks for a + b.
	a, b uint8
}

// question is the human-readable puzzle.
func (c *Challenge) question() string {
	return fmt.Sprintf("What is %d plus %d? (digits only)", c.a, c.b)
}

// answer is the expected answer to the puzzle.
func (c *Challenge) answer() string { return strconv.Itoa(int(c.a) + int(c.b)) }

// solved reports whether the challenge has been solved.
func (c *Challenge) solved() bool { return c.solvedAt != 0 }

// Service stores challenges and verifies solutions. Safe for concurrent use.
type Service struct {
	clk      clock.Clock
	ttl      time.Duration
	onSolved func(ch *Challenge)
	onVisit  func(ch *Challenge)
	rng      *rand.Rand

	mu    sync.Mutex
	byTok map[string]*Challenge
}

// Config parameterises a Service.
type Config struct {
	// Clock supplies timestamps; required.
	Clock clock.Clock
	// TTL is the challenge lifetime; the product used 30 days.
	TTL time.Duration
	// OnSolved is called for each successful solve, synchronously and
	// without the service lock held, so the dispatcher can whitelist the
	// sender and release the quarantined message; may be nil.
	OnSolved func(ch *Challenge)
	// OnVisit is called on each challenge-page visit, like OnSolved; may
	// be nil. The measurement pipeline uses it to reproduce the web
	// server's access log, which is where the paper's visit/solve
	// statistics came from.
	OnVisit func(ch *Challenge)
	// Seed drives puzzle generation; runs with equal seeds issue
	// identical puzzles (for reproducibility).
	Seed int64
}

// DefaultTTL is the product's 30-day quarantine window.
const DefaultTTL = 30 * 24 * time.Hour

// NewService returns an empty challenge service.
func NewService(cfg Config) *Service {
	if cfg.Clock == nil {
		panic("captcha: Config.Clock is required")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	return &Service{
		clk:      cfg.Clock,
		ttl:      cfg.TTL,
		onSolved: cfg.OnSolved,
		onVisit:  cfg.OnVisit,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		byTok:    make(map[string]*Challenge),
	}
}

// Issue creates a challenge guarding msgID, addressed to sender on behalf
// of recipient, and returns it. Each call issues a new challenge: the
// caller, which keeps the challenge with its message, issues at most one
// per message.
func (s *Service) Issue(msgID string, recipient, sender mail.Address) *Challenge {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, b := s.rng.Intn(90)+10, s.rng.Intn(9)+1
	var buf [32]byte
	tok := string(appendToken(buf[:0], s.rng.Uint32(), len(s.byTok)))
	ch := &Challenge{
		Token:     tok,
		MsgID:     msgID,
		Recipient: recipient,
		Sender:    sender,
		created:   s.clk.Now().UnixNano(),
		a:         uint8(a),
		b:         uint8(b),
	}
	s.byTok[tok] = ch
	return ch
}

// appendToken appends the token "tok-%08x-%04x" of (r, n) to dst.
func appendToken(dst []byte, r uint32, n int) []byte {
	dst = append(dst, "tok-"...)
	dst = appendHex(dst, uint64(r), 8)
	dst = append(dst, '-')
	return appendHex(dst, uint64(n), 4)
}

// appendHex appends v in lower-case hex, zero-padded to width digits.
func appendHex(dst []byte, v uint64, width int) []byte {
	var tmp [16]byte
	digits := strconv.AppendUint(tmp[:0], v, 16)
	for i := len(digits); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// URL returns the challenge URL to embed in the challenge email, given
// the web server's base (e.g. "http://cr.corp.example:8080").
func (s *Service) URL(base, token string) string {
	return strings.TrimSuffix(base, "/") + "/challenge/" + token
}

// get returns the challenge for token, or an error.
func (s *Service) get(token string) (*Challenge, error) {
	ch, ok := s.byTok[token]
	if !ok {
		return nil, errUnknownToken
	}
	if s.clk.Now().UnixNano() > ch.created+int64(s.ttl) {
		return nil, fmt.Errorf("%w: token %s", errExpired, token)
	}
	return ch, nil
}

// page is what the challenge page shows.
type page struct {
	Recipient string
	Question  string
}

// Visit records that the challenge URL was opened and returns the puzzle
// question. This is the server-side equivalent of a GET.
func (s *Service) Visit(token string) (string, error) {
	p, err := s.visit(token)
	return p.Question, err
}

// visit is Visit returning the whole page, read under the same lock that
// counts the visit: once the lock is released a solve or a drop may
// remove the challenge.
func (s *Service) visit(token string) (page, error) {
	s.mu.Lock()
	ch, err := s.get(token)
	if err != nil {
		s.mu.Unlock()
		return page{}, err
	}
	ch.visits++
	p := page{Recipient: ch.Recipient.String(), Question: ch.question()}
	cb := s.onVisit
	s.mu.Unlock()
	if cb != nil {
		cb(ch)
	}
	return p, nil
}

// Answer returns the expected answer for token. Test and simulation
// helper: the simulated "human" sender uses it to model solving.
func (s *Service) Answer(token string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, err := s.get(token)
	if err != nil {
		return "", err
	}
	return ch.answer(), nil
}

// Solve submits an answer. On success it marks the challenge solved and
// invokes the OnSolved callback. Every call counts as an attempt.
func (s *Service) Solve(token, answer string) error {
	s.mu.Lock()
	ch, err := s.get(token)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if ch.solved() {
		s.mu.Unlock()
		return errAlreadySolved
	}
	if ch.Attempts >= maxAttempts {
		s.mu.Unlock()
		return fmt.Errorf("%w (limit %d)", errLocked, maxAttempts)
	}
	ch.Attempts++
	if strings.TrimSpace(answer) != ch.answer() {
		s.mu.Unlock()
		return errWrongAnswer
	}
	ch.solvedAt = s.clk.Now().UnixNano()
	cb := s.onSolved
	s.mu.Unlock()
	if cb != nil {
		cb(ch)
	}
	return nil
}

// Drop removes ch, once its message leaves the quarantine (a solve,
// quarantine expiry or a digest action). Its token stops working. It is a
// no-op for nil and for a challenge already dropped.
func (s *Service) Drop(ch *Challenge) {
	if ch == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byTok[ch.Token] == ch {
		delete(s.byTok, ch.Token)
	}
}

var pageTmpl = template.Must(template.New("challenge").Parse(`<!DOCTYPE html>
<html><head><title>Confirm your message</title></head><body>
<h1>Please confirm you are human</h1>
<p>Your message to {{.Recipient}} is waiting for delivery.</p>
<p><strong>{{.Question}}</strong></p>
<form method="POST"><input name="answer"><button>Submit</button></form>
</body></html>
`))

// Handler returns an http.Handler serving the challenge pages:
//
//	GET  /challenge/{token}  — show the puzzle (records a visit)
//	POST /challenge/{token}  — submit the answer (form field "answer")
//
// It is the web server whose access logs the paper mined for the solve
// and visit statistics.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/challenge/", func(w http.ResponseWriter, r *http.Request) {
		token := strings.TrimPrefix(r.URL.Path, "/challenge/")
		if token == "" || strings.Contains(token, "/") {
			http.NotFound(w, r)
			return
		}
		switch r.Method {
		case http.MethodGet:
			p, err := s.visit(token)
			if err != nil {
				httpError(w, err)
				return
			}
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			_ = pageTmpl.Execute(w, p)
		case http.MethodPost:
			if err := r.ParseForm(); err != nil {
				http.Error(w, "bad form", http.StatusBadRequest)
				return
			}
			err := s.Solve(token, r.PostFormValue("answer"))
			switch {
			case err == nil:
				fmt.Fprintln(w, "Thank you. Your message has been delivered.")
			case errors.Is(err, errWrongAnswer):
				http.Error(w, "wrong answer, try again", http.StatusForbidden)
			case errors.Is(err, errLocked):
				http.Error(w, "too many failed attempts", http.StatusTooManyRequests)
			case errors.Is(err, errAlreadySolved):
				fmt.Fprintln(w, "Already confirmed.")
			default:
				httpError(w, err)
			}
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	return mux
}

func httpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errUnknownToken):
		http.Error(w, "no such challenge", http.StatusNotFound)
	case errors.Is(err, errExpired):
		http.Error(w, "challenge expired", http.StatusGone)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
