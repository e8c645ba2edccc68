// Package digest holds the daily quarantine summaries the CR product
// mails to each protected user: the Item lines a digest lists.
//
// The digest is the manual escape hatch of a challenge-response system:
// when a legitimate sender cannot or will not solve the challenge (most
// automatically generated mail — newsletters, receipts, notifications),
// the user can still rescue the message by authorizing it from the daily
// digest. The paper measures that ~2% of gray-spool senders were
// whitelisted this way (55,850 messages), with a delivery delay of 4 hours
// to 3 days, and studies per-user daily digest sizes (Figure 10), which
// the fleet records per lane (workload.Fleet.DigestSeries).
package digest

import (
	"time"

	"repro/internal/mail"
)

// Item is one quarantined message line in a digest.
type Item struct {
	MsgID   string
	Sender  mail.Address
	Subject string
	Queued  time.Time
}
