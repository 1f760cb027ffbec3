package workload

import (
	"fmt"
	"math/rand"
)

// Message is one synthetic social-media record: raw text plus timestamp,
// the (m_i, t_i) of the paper's information stream M. The text embeds the
// event's hashtag so a textmap.Mapper can recover the event id, exercising
// the full M → S pipeline in examples and integration tests.
type Message struct {
	Text string
	Time int64
}

// hashtagFor returns the canonical hashtag used for an event id.
func hashtagFor(e uint64) string { return fmt.Sprintf("#event%d", e) }

var messageTemplates = []string{
	"just saw the news about %s — unbelievable",
	"everyone is talking about %s right now",
	"can't stop watching %s coverage",
	"%s is happening again, stay safe out there",
	"breaking: %s (developing story)",
	"my whole feed is %s today",
	"thoughts on %s? reply below",
	"live thread for %s starts here",
}

// Messages renders an event stream into message text with embedded
// hashtags, deterministically given the seed. About one message in twelve
// additionally mentions a second random event (multi-event messages,
// Section II-A's general case), chosen from [0, k).
func Messages(s Spec, k uint64, seed int64) ([]Message, error) {
	st, err := Generate(s)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	msgs := make([]Message, len(st))
	for i, el := range st {
		text := fmt.Sprintf(messageTemplates[r.Intn(len(messageTemplates))], hashtagFor(el.Event))
		if k > 1 && r.Intn(12) == 0 {
			text += " " + hashtagFor(uint64(r.Int63())%k)
		}
		msgs[i] = Message{Text: text, Time: el.Time}
	}
	return msgs, nil
}
