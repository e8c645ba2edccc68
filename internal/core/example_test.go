package core_test

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/whitelist"
)

// ExampleEngine is the challenge-response engine in ~60 lines: build an
// engine for one company, feed it three messages — one from a
// whitelisted contact, one from a stranger, one from a blacklisted
// sender — then solve the stranger's challenge and watch the message get
// delivered and the sender whitelisted.
//
//	go test -run ExampleEngine -v ./internal/core/
func ExampleEngine() {
	// Substrate: a virtual clock and a private DNS (the engine verifies
	// that sender domains resolve, like the studied product's MTA-IN).
	clk := clock.NewSim(time.Date(2010, 7, 1, 9, 0, 0, 0, time.UTC))
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.10")

	// The engine: one protected domain, one protected user, an antivirus
	// + reverse-DNS filter chain, and a callback that "sends" challenges.
	wl := whitelist.NewStore(clk)
	chain := filters.NewChain(filters.NewAntivirus(), filters.NewReverseDNS(dns))
	var outbox []core.OutboundChallenge
	eng := core.New(core.Config{
		Name:             "quickstart",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, chain, wl, func(ch core.OutboundChallenge) {
		outbox = append(outbox, ch)
		fmt.Printf("  -> challenge emailed to %s: %s\n", ch.To, ch.URL)
	})
	bob := mail.MustParseAddress("bob@corp.example")
	eng.AddUser(bob)
	eng.AddManualWhitelist(bob, mail.MustParseAddress("friend@example.com"))
	// The inbox sink sees every delivery; a deployment files the
	// message into a mailbox (internal/mailbox), this one keeps the
	// record to print at the end.
	var inbox []core.Delivery
	eng.SetInboxSink(func(d core.Delivery, _ *mail.Message) { inbox = append(inbox, d) })
	eng.Whitelists().AddBlack(bob, mail.MustParseAddress("spammer@example.com"))

	send := func(from, subject string) {
		msg := &mail.Message{
			ID:           mail.NewID("demo"),
			EnvelopeFrom: mail.MustParseAddress(from),
			Rcpt:         bob,
			Subject:      subject,
			Size:         2048,
			ClientIP:     "192.0.2.10",
			Received:     clk.Now(),
		}
		verdict := eng.Receive(msg)
		fmt.Printf("%-24s -> MTA says %q\n", from, verdict)
	}

	fmt.Println("== three senders write to bob ==")
	send("friend@example.com", "lunch?")             // whitelisted: instant
	send("stranger@example.com", "hello, may I ask") // gray: challenged
	send("spammer@example.com", "BUY NOW")           // blacklisted: dropped

	m := eng.Metrics()
	fmt.Printf("\nspools: white=%d black=%d gray=%d, challenges=%d, quarantined=%d\n",
		m.SpoolWhite, m.SpoolBlack, m.SpoolGray, m.ChallengesSent, eng.QuarantineLen())

	// The stranger solves the CAPTCHA twelve minutes later.
	clk.Advance(12 * time.Minute)
	svc := eng.Captcha()
	tok := outbox[0].Token
	question, _ := svc.Visit(tok)
	answer, _ := svc.Answer(tok) // the simulated human "reads" the puzzle
	fmt.Printf("\nstranger opens the challenge: %q\n", question)
	if err := svc.Solve(tok, answer); err != nil {
		panic(err)
	}

	for _, d := range inbox {
		fmt.Printf("delivered to %s from %-24s via %-9s after %v\n",
			d.User, d.Sender, d.Via, d.Delay())
	}
	fmt.Printf("\nstranger now whitelisted: %v\n",
		eng.Whitelists().IsWhite(bob, mail.MustParseAddress("stranger@example.com")))

	// Output:
	// == three senders write to bob ==
	// friend@example.com       -> MTA says "accepted"
	//   -> challenge emailed to stranger@example.com: http://cr.corp.example/challenge/tok-a7ecbff2-0000
	// stranger@example.com     -> MTA says "accepted"
	// spammer@example.com      -> MTA says "accepted"
	//
	// spools: white=1 black=1 gray=1, challenges=1, quarantined=1
	//
	// stranger opens the challenge: "What is 64 plus 1? (digits only)"
	// delivered to bob@corp.example from friend@example.com       via whitelist after 0s
	// delivered to bob@corp.example from stranger@example.com     via challenge after 12m0s
	//
	// stranger now whitelisted: true
}
